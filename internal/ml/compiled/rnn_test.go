package compiled_test

import (
	"testing"

	"lumos5g/internal/ml/nn"
	"lumos5g/internal/rng"
)

// synthSeqs builds training sequences of length seqLen with a scalar
// next-slot target correlated with the inputs.
func synthSeqs(n, seqLen, dim int, seed uint64) ([][][]float64, []float64) {
	src := rng.New(seed)
	X := make([][][]float64, n)
	y := make([]float64, n)
	for i := range X {
		seq := make([][]float64, seqLen)
		var acc float64
		for t := range seq {
			step := make([]float64, dim)
			for f := range step {
				step[f] = src.Float64()*100 - 50
			}
			seq[t] = step
			acc += step[0] - 0.5*step[dim-1]
		}
		X[i] = seq
		y[i] = 300 + acc/float64(seqLen) + src.Norm()*10
	}
	return X, y
}

func fitTestLSTM(t testing.TB, seqLen int) *nn.LSTMRegressor {
	t.Helper()
	X, y := synthSeqs(80, seqLen, 4, 11)
	m, err := nn.NewLSTMRegressor(nn.Seq2SeqConfig{
		InputDim: 4, Hidden: 8, Layers: 2, Epochs: 2, Batch: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return m
}

func fitTestSeq2Seq(t testing.TB, seqLen, outLen int) *nn.Seq2Seq {
	t.Helper()
	X, y := synthSeqs(80, seqLen, 4, 13)
	Y := make([][]float64, len(y))
	for i, v := range y {
		row := make([]float64, outLen)
		for j := range row {
			row[j] = v + float64(j)
		}
		Y[i] = row
	}
	m, err := nn.NewSeq2Seq(nn.Seq2SeqConfig{
		InputDim: 4, Hidden: 8, Layers: 2, OutLen: outLen, Epochs: 2, Batch: 16, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(X, Y); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCompiledLSTMParity pins the recurrent kernel's bit-parity
// contract across sequence lengths 1, n (the training length), and n+1:
// the compiled forward pass must reproduce the interpreted model's
// float64 output exactly, including the rank-gaussian input transform.
func TestCompiledLSTMParity(t *testing.T) {
	const trainLen = 6
	m := fitTestLSTM(t, trainLen)
	k, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if k.IsSeq2Seq() || k.OutLen() != 1 || k.InputDim() != 4 {
		t.Fatalf("kernel shape: seq2seq=%v outLen=%d inDim=%d", k.IsSeq2Seq(), k.OutLen(), k.InputDim())
	}
	for _, seqLen := range []int{1, trainLen, trainLen + 1} {
		probes, _ := synthSeqs(40, seqLen, 4, 99+uint64(seqLen))
		for i, seq := range probes {
			want, err := m.Predict(seq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.PredictNext(seq)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seqLen=%d probe=%d: compiled %v != interpreted %v (Δ=%g)",
					seqLen, i, got, want, got-want)
			}
			horizon, err := k.Predict(seq)
			if err != nil {
				t.Fatal(err)
			}
			if len(horizon) != 1 || horizon[0] != want {
				t.Fatalf("seqLen=%d probe=%d: Predict horizon %v, want [%v]", seqLen, i, horizon, want)
			}
		}
	}
}

// TestCompiledSeq2SeqParity covers the encoder–decoder kernel: the full
// free-running horizon and the primed decoder must both be bit-identical
// to the interpreted forward pass, across sequence lengths 1/n/n+1.
func TestCompiledSeq2SeqParity(t *testing.T) {
	const trainLen, outLen = 6, 3
	m := fitTestSeq2Seq(t, trainLen, outLen)
	k, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if !k.IsSeq2Seq() || k.OutLen() != outLen {
		t.Fatalf("kernel shape: seq2seq=%v outLen=%d", k.IsSeq2Seq(), k.OutLen())
	}
	for _, seqLen := range []int{1, trainLen, trainLen + 1} {
		probes, lastY := synthSeqs(40, seqLen, 4, 301+uint64(seqLen))
		for i, seq := range probes {
			want, err := m.Predict(seq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.Predict(seq)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seqLen=%d probe=%d: horizon %d, want %d", seqLen, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("seqLen=%d probe=%d step=%d: compiled %v != interpreted %v",
						seqLen, i, j, got[j], want[j])
				}
			}
			// Primed decoder (the connection-group serving mode).
			wantP, err := m.PredictPrimed(seq, &lastY[i])
			if err != nil {
				t.Fatal(err)
			}
			gotP, err := k.PredictPrimed(seq, &lastY[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := range gotP {
				if gotP[j] != wantP[j] {
					t.Fatalf("seqLen=%d probe=%d step=%d primed: compiled %v != interpreted %v",
						seqLen, i, j, gotP[j], wantP[j])
				}
			}
		}
	}
}

// TestRNNKernelZeroAllocs pins the recurrent kernel's steady-state
// prediction at zero allocations per call (the scratch pool is primed
// by the first call), matching the tree kernel's budget.
func TestRNNKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops Puts, so pool misses refill scratch via New")
	}
	m := fitTestLSTM(t, 6)
	k, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	probes, _ := synthSeqs(4, 6, 4, 55)
	if _, err := k.PredictNext(probes[0]); err != nil { // prime pool
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := k.PredictNext(probes[1]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("float RNN kernel allocates %v times per call, want 0", n)
	}
}

func BenchmarkRNNKernelSingle(b *testing.B) {
	m := fitTestLSTM(b, 6)
	k, err := m.Compiled()
	if err != nil {
		b.Fatal(err)
	}
	probes, _ := synthSeqs(64, 6, 4, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.PredictNext(probes[i%len(probes)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRNNInterpretedSingle(b *testing.B) {
	m := fitTestLSTM(b, 6)
	probes, _ := synthSeqs(64, 6, 4, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(probes[i%len(probes)]); err != nil {
			b.Fatal(err)
		}
	}
}
