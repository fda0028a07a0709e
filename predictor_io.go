package lumos5g

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/ml/gbdt"
)

// Model artifacts are the paper's §2.3 downloadable payloads: UEs fetch
// throughput maps *with ML models attached*, over flaky mmWave links, and
// a map server swaps refreshed artifacts in under live traffic. Both
// sides therefore need to detect truncation and corruption cheaply and
// refuse future formats cleanly, which is what the envelope below
// provides:
//
//	magic[4] | version u16 | flags u16 | payloadLen u32 | crc32c u32 | payload
//
// (big-endian; crc32c is the Castagnoli checksum of the payload bytes).
// Distinct magics separate single-predictor artifacts from chain
// bundles. Loaders return the typed errors ErrArtifactTruncated,
// ErrArtifactCorrupt and ErrArtifactVersion so callers (the mapserver's
// hot-reloader, the CLI) can report precisely what is wrong and keep a
// previous good model live. Artifacts written before the envelope (bare
// gob) are still loadable: LoadPredictor sniffs the magic and falls back
// to the legacy decoder.

// Typed artifact errors. Loaders wrap these; match with errors.Is.
var (
	// ErrArtifactTruncated marks an artifact cut short mid-download or
	// mid-write.
	ErrArtifactTruncated = errors.New("model artifact truncated")
	// ErrArtifactCorrupt marks an artifact whose bytes fail checksum or
	// structural validation.
	ErrArtifactCorrupt = errors.New("model artifact corrupt")
	// ErrArtifactVersion marks an artifact written by a newer format
	// revision than this build understands.
	ErrArtifactVersion = errors.New("model artifact from an unsupported future version")
)

const (
	magicPredictor = "L5GP"
	magicChain     = "L5GC"
	// envelopeVersion is the current envelope revision. Readers accept
	// this and anything older; newer revisions fail with
	// ErrArtifactVersion.
	envelopeVersion = 1
	// maxArtifactBytes bounds payload allocation so a corrupt length
	// field cannot OOM the loader.
	maxArtifactBytes = 64 << 20
	envelopeHeadLen  = 4 + 2 + 2 + 4 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writeEnvelope frames payload under the given magic.
func writeEnvelope(w io.Writer, magic string, payload []byte) error {
	var head [envelopeHeadLen]byte
	copy(head[:4], magic)
	binary.BigEndian.PutUint16(head[4:6], envelopeVersion)
	binary.BigEndian.PutUint16(head[6:8], 0) // flags, reserved
	binary.BigEndian.PutUint32(head[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(head[12:16], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readEnvelope reads and verifies one envelope, returning its payload.
func readEnvelope(r io.Reader, magic string) ([]byte, error) {
	var head [envelopeHeadLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("lumos5g: read artifact header: %w", ErrArtifactTruncated)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("lumos5g: bad artifact magic %q: %w", head[:4], ErrArtifactCorrupt)
	}
	version := binary.BigEndian.Uint16(head[4:6])
	flags := binary.BigEndian.Uint16(head[6:8])
	if version > envelopeVersion || flags != 0 {
		return nil, fmt.Errorf("lumos5g: artifact envelope v%d flags %#x: %w", version, flags, ErrArtifactVersion)
	}
	n := binary.BigEndian.Uint32(head[8:12])
	if n > maxArtifactBytes {
		return nil, fmt.Errorf("lumos5g: artifact claims %d payload bytes: %w", n, ErrArtifactCorrupt)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("lumos5g: read artifact payload: %w", ErrArtifactTruncated)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.BigEndian.Uint32(head[12:16]); got != want {
		return nil, fmt.Errorf("lumos5g: artifact checksum %08x, want %08x: %w", got, want, ErrArtifactCorrupt)
	}
	return payload, nil
}

// predictorDTO is the wire form of a trained predictor. The conformal
// fields ride along as optional gob fields: artifacts written before
// calibration existed decode with HasIval=false, and old readers skip
// the new fields — no version bump needed.
type predictorDTO struct {
	Version int
	Group   string
	Names   []string
	Model   []byte // gbdt payload
	// Split-conformal interval calibration (PredictInterval offsets).
	HasIval bool
	IvalLo  float64
	IvalHi  float64
}

const predictorWireVersion = 1

// Save serialises a trained predictor inside the checksummed envelope.
// Only GDBT predictors are persistable (the deployable model family:
// compact, CPU-cheap, interpretable — the reasons §5.2 gives for
// choosing GDBT on-device).
func (p *Predictor) Save(w io.Writer) error {
	g, ok := p.reg.(*gbdt.Model)
	if !ok {
		return fmt.Errorf("lumos5g: only GDBT predictors can be saved, not %s", p.model)
	}
	var model bytes.Buffer
	if err := g.Save(&model); err != nil {
		return err
	}
	dto := predictorDTO{
		Version: predictorWireVersion,
		Group:   p.group.String(),
		Names:   p.FeatureNames(),
		Model:   model.Bytes(),
	}
	if p.ival != nil {
		dto.HasIval = true
		dto.IvalLo = p.ival.Lo
		dto.IvalHi = p.ival.Hi
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(dto); err != nil {
		return err
	}
	return writeEnvelope(w, magicPredictor, payload.Bytes())
}

// LoadPredictor reconstructs a predictor saved with Save. It accepts
// both enveloped artifacts and the legacy bare-gob format, and returns
// ErrArtifactTruncated / ErrArtifactCorrupt / ErrArtifactVersion
// (wrapped) on damaged or unsupported payloads.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("lumos5g: empty predictor artifact: %w", ErrArtifactTruncated)
	}
	if string(head) == magicPredictor {
		payload, err := readEnvelope(br, magicPredictor)
		if err != nil {
			return nil, err
		}
		return decodePredictor(bytes.NewReader(payload))
	}
	// Legacy pre-envelope artifact: bare gob.
	return decodePredictor(br)
}

// decodePredictor parses a predictorDTO gob stream and validates it.
func decodePredictor(r io.Reader) (*Predictor, error) {
	var dto predictorDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("lumos5g: decode predictor: %v: %w", err, ErrArtifactTruncated)
		}
		return nil, fmt.Errorf("lumos5g: decode predictor: %v: %w", err, ErrArtifactCorrupt)
	}
	if dto.Version > predictorWireVersion {
		return nil, fmt.Errorf("lumos5g: predictor wire v%d: %w", dto.Version, ErrArtifactVersion)
	}
	if dto.Version < 1 {
		return nil, fmt.Errorf("lumos5g: predictor wire v%d: %w", dto.Version, ErrArtifactCorrupt)
	}
	group, err := features.ParseGroup(dto.Group)
	if err != nil {
		return nil, fmt.Errorf("lumos5g: %v: %w", err, ErrArtifactCorrupt)
	}
	model, err := gbdt.Load(bytes.NewReader(dto.Model))
	if err != nil {
		return nil, fmt.Errorf("lumos5g: %v: %w", err, ErrArtifactCorrupt)
	}
	if want := features.GroupNames(group); !slices.Equal(dto.Names, want) {
		return nil, fmt.Errorf("lumos5g: stored columns are not %s's %v: %w",
			group, want, ErrArtifactCorrupt)
	}
	if model.NumFeatures() != len(dto.Names) {
		return nil, fmt.Errorf("lumos5g: model expects %d features but %d names stored: %w",
			model.NumFeatures(), len(dto.Names), ErrArtifactCorrupt)
	}
	p := &Predictor{
		group: group,
		model: ModelGDBT,
		reg:   model,
		cols:  group.Columns(),
	}
	if dto.HasIval {
		if err := p.SetConformalOffsets(ml.ConformalOffsets{Lo: dto.IvalLo, Hi: dto.IvalHi}); err != nil {
			return nil, fmt.Errorf("lumos5g: %v: %w", err, ErrArtifactCorrupt)
		}
	}
	return p, nil
}

// chainDTO is the wire form of a fallback-chain bundle. Each tier is a
// complete enveloped predictor artifact, so every tier carries its own
// checksum.
type chainDTO struct {
	Version   int
	PriorMbps float64
	Tiers     [][]byte
	// Last-resort conformal offsets; optional gob fields, see
	// predictorDTO.
	HasHMIval bool
	HMLo      float64
	HMHi      float64
}

const chainWireVersion = 1

// Save serialises the chain as a bundle artifact: prior + every tier,
// each tier individually enveloped and checksummed.
func (c *FallbackChain) Save(w io.Writer) error {
	dto := chainDTO{Version: chainWireVersion, PriorMbps: c.prior}
	if c.hmOff != nil {
		dto.HasHMIval = true
		dto.HMLo = c.hmOff.Lo
		dto.HMHi = c.hmOff.Hi
	}
	for i, p := range c.tiers {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			return fmt.Errorf("lumos5g: save chain tier %d (%s): %w", i, p.group, err)
		}
		dto.Tiers = append(dto.Tiers, buf.Bytes())
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(dto); err != nil {
		return err
	}
	return writeEnvelope(w, magicChain, payload.Bytes())
}

// LoadChain reconstructs a fallback chain saved with FallbackChain.Save.
func LoadChain(r io.Reader) (*FallbackChain, error) {
	payload, err := readEnvelope(bufio.NewReader(r), magicChain)
	if err != nil {
		return nil, err
	}
	var dto chainDTO
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&dto); err != nil {
		return nil, fmt.Errorf("lumos5g: decode chain: %v: %w", err, ErrArtifactCorrupt)
	}
	if dto.Version > chainWireVersion {
		return nil, fmt.Errorf("lumos5g: chain wire v%d: %w", dto.Version, ErrArtifactVersion)
	}
	if dto.Version < 1 {
		return nil, fmt.Errorf("lumos5g: chain wire v%d: %w", dto.Version, ErrArtifactCorrupt)
	}
	tiers := make([]*Predictor, 0, len(dto.Tiers))
	for i, raw := range dto.Tiers {
		p, err := LoadPredictor(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("lumos5g: chain tier %d: %w", i, err)
		}
		tiers = append(tiers, p)
	}
	c, err := NewFallbackChain(dto.PriorMbps, tiers...)
	if err != nil {
		return nil, fmt.Errorf("lumos5g: %v: %w", err, ErrArtifactCorrupt)
	}
	if dto.HasHMIval {
		if err := c.SetLastResortOffsets(ml.ConformalOffsets{Lo: dto.HMLo, Hi: dto.HMHi}); err != nil {
			return nil, fmt.Errorf("lumos5g: %v: %w", err, ErrArtifactCorrupt)
		}
	}
	return c, nil
}

// atomicWriteFile writes via a temp file in the target directory, fsyncs,
// and renames into place, so readers — including a mapserver hot-reload
// watcher — only ever observe complete artifacts.
func atomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	// Durability of the rename itself; best-effort on filesystems that
	// do not support fsync on directories.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// SaveFile atomically writes the predictor artifact to path.
func (p *Predictor) SaveFile(path string) error {
	return atomicWriteFile(path, p.Save)
}

// SaveFile atomically writes the chain bundle to path.
func (c *FallbackChain) SaveFile(path string) error {
	return atomicWriteFile(path, c.Save)
}

// LoadPredictorFile loads a single-predictor artifact from path.
func LoadPredictorFile(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadPredictor(f)
}

// LoadChainFile loads a chain bundle from path.
func LoadChainFile(path string) (*FallbackChain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadChain(f)
}

// LoadAnyModelFile loads either artifact kind from path and returns it
// as a serving-ready chain: bundles load directly, single predictors are
// wrapped via ChainFromPredictor with priorMbps as the last resort.
func LoadAnyModelFile(path string, priorMbps float64) (*FallbackChain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, _ := br.Peek(4)
	if string(head) == magicChain {
		return LoadChain(br)
	}
	p, err := LoadPredictor(br)
	if err != nil {
		return nil, err
	}
	return ChainFromPredictor(p, priorMbps)
}
