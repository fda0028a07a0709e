package lumos5g

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lumos5g/internal/ml/gbdt"
)

// savedChainBytes trains a chain and returns its serialised bundle.
func savedChainBytes(t *testing.T) (*FallbackChain, []byte) {
	t.Helper()
	c, _ := trainTestChain(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return c, buf.Bytes()
}

func savedPredictorBytes(t *testing.T) (*Predictor, []byte) {
	t.Helper()
	a, _ := AreaByName("Airport")
	d, _ := CleanDataset(GenerateArea(a, tinyCampaign()))
	p, err := Train(d, GroupLM, ModelGDBT, testScale())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return p, buf.Bytes()
}

func TestChainSaveLoadRoundTrip(t *testing.T) {
	c, raw := savedChainBytes(t)
	back, err := LoadChain(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if back.Prior() != c.Prior() {
		t.Fatalf("prior %v != %v", back.Prior(), c.Prior())
	}
	if got, want := back.String(), c.String(); got != want {
		t.Fatalf("chain shape %q != %q", got, want)
	}
	queries := []map[string]float64{nil, {"pixel_x": 1, "pixel_y": 1}}
	for _, q := range queries {
		if a, b := c.Predict(q), back.Predict(q); a.Mbps != b.Mbps || a.Tier != b.Tier {
			t.Fatalf("loaded chain diverges: %+v vs %+v", a, b)
		}
	}
}

func TestLoadPredictorTruncated(t *testing.T) {
	_, raw := savedPredictorBytes(t)
	for _, n := range []int{0, 3, envelopeHeadLen - 1, envelopeHeadLen, len(raw) / 2, len(raw) - 1} {
		_, err := LoadPredictor(bytes.NewReader(raw[:n]))
		if !errors.Is(err, ErrArtifactTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrArtifactTruncated", n, err)
		}
	}
	_, raw = savedChainBytes(t)
	for _, n := range []int{0, 7, len(raw) / 3, len(raw) - 1} {
		_, err := LoadChain(bytes.NewReader(raw[:n]))
		if !errors.Is(err, ErrArtifactTruncated) {
			t.Fatalf("chain cut at %d: err = %v, want ErrArtifactTruncated", n, err)
		}
	}
}

func TestLoadPredictorCorrupt(t *testing.T) {
	_, raw := savedPredictorBytes(t)
	// Flip one payload byte: the CRC must catch it.
	bad := append([]byte(nil), raw...)
	bad[envelopeHeadLen+10] ^= 0xFF
	if _, err := LoadPredictor(bytes.NewReader(bad)); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrArtifactCorrupt", err)
	}
	// A wildly wrong length field must not OOM and must fail typed.
	bad = append([]byte(nil), raw...)
	binary.BigEndian.PutUint32(bad[8:12], 1<<31)
	if _, err := LoadPredictor(bytes.NewReader(bad)); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("huge length: err = %v, want ErrArtifactCorrupt", err)
	}
	// Garbage takes the legacy-gob path and must fail with a typed
	// artifact error (corrupt, or truncated when the gob stream just
	// runs out), never a panic.
	if _, err := LoadPredictor(strings.NewReader("garbage-not-a-model")); !errors.Is(err, ErrArtifactCorrupt) && !errors.Is(err, ErrArtifactTruncated) {
		t.Fatalf("garbage: err = %v, want a typed artifact error", err)
	}
	if _, err := LoadChain(strings.NewReader("garbage-not-a-chain!!")); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("chain garbage: err = %v, want ErrArtifactCorrupt", err)
	}
}

func TestLoadPredictorFutureVersion(t *testing.T) {
	_, raw := savedPredictorBytes(t)
	bad := append([]byte(nil), raw...)
	binary.BigEndian.PutUint16(bad[4:6], 999)
	if _, err := LoadPredictor(bytes.NewReader(bad)); !errors.Is(err, ErrArtifactVersion) {
		t.Fatalf("future envelope: err = %v, want ErrArtifactVersion", err)
	}
	// Unknown flags are a future format too.
	bad = append([]byte(nil), raw...)
	binary.BigEndian.PutUint16(bad[6:8], 0x8000)
	if _, err := LoadPredictor(bytes.NewReader(bad)); !errors.Is(err, ErrArtifactVersion) {
		t.Fatalf("unknown flags: err = %v, want ErrArtifactVersion", err)
	}
}

func TestLoadLegacyBareGobArtifact(t *testing.T) {
	p, _ := savedPredictorBytes(t)
	// Pre-envelope artifacts were a bare gob of predictorDTO.
	var model bytes.Buffer
	if err := p.reg.(*gbdt.Model).Save(&model); err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	err := gob.NewEncoder(&legacy).Encode(predictorDTO{
		Version: 1,
		Group:   p.Group().String(),
		Names:   p.FeatureNames(),
		Model:   model.Bytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(&legacy)
	if err != nil {
		t.Fatalf("legacy artifact must still load: %v", err)
	}
	if back.Group() != p.Group() {
		t.Fatal("legacy metadata lost")
	}
}

// A stored column list must be exactly the group's: an unknown or
// reordered name would load a tier that never serves or is fed columns
// in the wrong order.
func TestLoadPredictorRejectsWrongNames(t *testing.T) {
	p, _ := savedPredictorBytes(t)
	var model bytes.Buffer
	if err := p.reg.(*gbdt.Model).Save(&model); err != nil {
		t.Fatal(err)
	}
	names := p.FeatureNames()
	unknown := append([]string(nil), names...)
	unknown[len(unknown)-1] = "compass_tan"
	swapped := append([]string(nil), names...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for label, stored := range map[string][]string{"unknown name": unknown, "swapped order": swapped} {
		var payload bytes.Buffer
		err := gob.NewEncoder(&payload).Encode(predictorDTO{
			Version: predictorWireVersion,
			Group:   p.Group().String(),
			Names:   stored,
			Model:   model.Bytes(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var art bytes.Buffer
		if err := writeEnvelope(&art, magicPredictor, payload.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPredictor(&art); !errors.Is(err, ErrArtifactCorrupt) {
			t.Errorf("%s %v: err = %v, want ErrArtifactCorrupt", label, stored, err)
		}
	}
}

func TestSaveFileAtomicAndFileLoaders(t *testing.T) {
	dir := t.TempDir()
	c, _ := trainTestChain(t)
	chainPath := filepath.Join(dir, "chain.l5g")
	if err := c.SaveFile(chainPath); err != nil {
		t.Fatal(err)
	}
	// Overwrite must also succeed (rename over existing).
	if err := c.SaveFile(chainPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChainFile(chainPath); err != nil {
		t.Fatal(err)
	}

	p := c.Tiers()[0]
	predPath := filepath.Join(dir, "model.l5g")
	if err := p.SaveFile(predPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictorFile(predPath); err != nil {
		t.Fatal(err)
	}

	// No temp droppings left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("stray files after atomic saves: %v", names)
	}

	// LoadAnyModelFile serves both artifact kinds as chains.
	if got, err := LoadAnyModelFile(chainPath, 100); err != nil || len(got.Tiers()) != len(c.Tiers()) {
		t.Fatalf("LoadAnyModelFile(chain): %v %v", got, err)
	}
	got, err := LoadAnyModelFile(predPath, 123)
	if err != nil || len(got.Tiers()) != 1 || got.Prior() != 123 {
		t.Fatalf("LoadAnyModelFile(predictor): %+v %v", got, err)
	}
}
