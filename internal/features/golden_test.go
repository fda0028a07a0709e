package features

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// digester hashes float bits, ints and strings in order.
type digester struct{ hash.Hash64 }

func (d digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.Write(b[:])
}

func (d digester) floats(xs []float64) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.u64(math.Float64bits(x))
	}
}

func (d digester) ints(xs []int) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.u64(uint64(int64(x)))
	}
}

func (d digester) strs(xs []string) {
	d.u64(uint64(len(xs)))
	for _, s := range xs {
		d.u64(uint64(len(s)))
		d.Write([]byte(s))
	}
}

// TestGoldenBuild pins Build and BuildSequences for every group to
// digests recorded before the feature vector became fixed-slot: column
// names, every value's bits, labels and record joins.
func TestGoldenBuild(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating point")
	}
	d := testData(t)
	want := map[Group][2]string{
		GroupL:   {"b6db4543732f3886", "47f36695baa7db7a"},
		GroupM:   {"1eae918e4dd3c896", "f3a027755760082f"},
		GroupT:   {"c0074b198c638c77", "ceab10038e840a54"},
		GroupC:   {"bf8545c4636687d7", "6c4377dfdd679c46"},
		GroupLM:  {"984e5b59fcaa9d05", "eb1844340c80d6ff"},
		GroupTM:  {"2d5f58da8cbdbd1a", "78b00e379f7ab0b0"},
		GroupLMC: {"2e64b4a5c5b77d21", "e72c9d1a3f404819"},
		GroupTMC: {"d956df243c998c84", "d2015453a44fc3c8"},
	}
	for g, w := range want {
		dg := digester{fnv.New64a()}
		m := Build(d, g)
		dg.strs(m.Names)
		for _, row := range m.X {
			dg.floats(row)
		}
		dg.floats(m.Y)
		dg.ints(m.RecordIdx)
		build := fmt.Sprintf("%016x", dg.Sum64())

		dg = digester{fnv.New64a()}
		s := BuildSequences(d, g, 4, 2)
		dg.strs(s.Names)
		for i, seq := range s.X {
			for _, step := range seq {
				dg.floats(step)
			}
			dg.floats(s.Y[i])
		}
		dg.ints(s.RecordIdx)
		dg.floats(s.LastY)
		seqs := fmt.Sprintf("%016x", dg.Sum64())

		if len(m.X) == 0 || len(s.X) == 0 {
			t.Errorf("%v: empty build (%d rows, %d windows)", g, len(m.X), len(s.X))
		}
		if build != w[0] || seqs != w[1] {
			t.Errorf("%v: digests {%q, %q}, want {%q, %q}", g, build, seqs, w[0], w[1])
		}
	}
}
