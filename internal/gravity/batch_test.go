package gravity

import (
	"math"
	"math/rand"
	"testing"

	"spacesim/internal/vec"
)

func randomSoA(rng *rand.Rand, n int) (*SoA, []Source) {
	s := &SoA{}
	src := make([]Source, n)
	for i := 0; i < n; i++ {
		p := vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		m := rng.Float64() + 0.1
		src[i] = Source{Pos: p, Mass: m}
		s.Push(p, m)
	}
	return s, src
}

// The batched kernels must agree with the scalar kernels sink by sink
// (identical summation order, so equality is exact).
func TestKernelBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	soa, src := randomSoA(rng, 100)
	const ns = 17
	sx := make([]float64, ns)
	sy := make([]float64, ns)
	sz := make([]float64, ns)
	sinks := make([]vec.V3, ns)
	for j := 0; j < ns; j++ {
		sinks[j] = vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		sx[j], sy[j], sz[j] = sinks[j][0], sinks[j][1], sinks[j][2]
	}
	eps2 := 0.01
	for _, karp := range []bool{false, true} {
		ax := make([]float64, ns)
		ay := make([]float64, ns)
		az := make([]float64, ns)
		pp := make([]float64, ns)
		if karp {
			KernelBatchKarp(sx, sy, sz, soa, eps2, ax, ay, az, pp)
		} else {
			KernelBatchLibm(sx, sy, sz, soa, eps2, ax, ay, az, pp)
		}
		for j := 0; j < ns; j++ {
			var want vec.V3
			var wantP float64
			if karp {
				want, wantP = KernelKarp(sinks[j], src, eps2)
			} else {
				want, wantP = KernelLibm(sinks[j], src, eps2)
			}
			got := vec.V3{ax[j], ay[j], az[j]}
			if got != want || pp[j] != wantP {
				t.Fatalf("karp=%v sink %d: batch (%v, %v) vs scalar (%v, %v)", karp, j, got, pp[j], want, wantP)
			}
		}
	}
}

// A sink colocated with a source must not interact with it (the bucket
// self-term), while the scalar kernel would include the eps-softened term.
func TestKernelBatchSkipsSelf(t *testing.T) {
	soa := &SoA{}
	self := vec.V3{0.5, -0.25, 1}
	soa.Push(self, 2.0)
	soa.Push(vec.V3{2, 0, 0}, 1.0)
	sx := []float64{self[0]}
	sy := []float64{self[1]}
	sz := []float64{self[2]}
	ax := []float64{0}
	ay := []float64{0}
	az := []float64{0}
	pp := []float64{0}
	KernelBatchLibm(sx, sy, sz, soa, 0.01, ax, ay, az, pp)
	other := []Source{{Pos: vec.V3{2, 0, 0}, Mass: 1.0}}
	want, wantP := KernelLibm(self, other, 0.01)
	if (vec.V3{ax[0], ay[0], az[0]}) != want || pp[0] != wantP {
		t.Fatalf("self term not skipped: got (%v %v %v, %v) want (%v, %v)", ax[0], ay[0], az[0], pp[0], want, wantP)
	}
}

// Evaluator.EvalList = accepted cells + batched bodies, against a
// hand-rolled sum.
func TestEvalList(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	soa, src := randomSoA(rng, 40)
	cellsrc := make([][]vec.V3, 2)
	cellmass := make([][]float64, 2)
	cells := make([]Multipole, 2)
	var csoa MultipoleSoA
	for c := range cells {
		np := 20
		cellsrc[c] = make([]vec.V3, np)
		cellmass[c] = make([]float64, np)
		for i := 0; i < np; i++ {
			cellsrc[c][i] = vec.V3{10 + rng.Float64(), float64(5 * c), 0}
			cellmass[c][i] = rng.Float64()
		}
		cells[c] = FromBodies(cellsrc[c], cellmass[c])
		csoa.Push(&cells[c])
	}
	sink := vec.V3{0.1, 0.2, 0.3}
	sx := []float64{sink[0]}
	sy := []float64{sink[1]}
	sz := []float64{sink[2]}
	ax := []float64{0}
	ay := []float64{0}
	az := []float64{0}
	pp := []float64{0}
	eps := 0.05
	ev := Evaluator{Eps: eps}
	ev.EvalList(&csoa, soa, sx, sy, sz, ax, ay, az, pp)

	var want vec.V3
	var wantP float64
	for c := range cells {
		a, p := cells[c].AccelAt(sink, eps)
		want = want.Add(a)
		wantP += p
	}
	a, p := KernelLibm(sink, src, eps*eps)
	want = want.Add(a)
	wantP += p
	got := vec.V3{ax[0], ay[0], az[0]}
	if got.Sub(want).Norm() > 1e-12*(1+want.Norm()) || math.Abs(pp[0]-wantP) > 1e-12*(1+math.Abs(wantP)) {
		t.Fatalf("EvalList (%v, %v) vs reference (%v, %v)", got, pp[0], want, wantP)
	}
}

func BenchmarkKernelScalarLibm(b *testing.B) { benchScalar(b, false) }
func BenchmarkKernelScalarKarp(b *testing.B) { benchScalar(b, true) }
func BenchmarkKernelBatchLibm(b *testing.B)  { benchBatch(b, false) }
func BenchmarkKernelBatchKarp(b *testing.B)  { benchBatch(b, true) }

const benchSrc = 512
const benchSinks = 16

func benchScalar(b *testing.B, karp bool) {
	rng := rand.New(rand.NewSource(4))
	_, src := randomSoA(rng, benchSrc)
	sinks := make([]vec.V3, benchSinks)
	for i := range sinks {
		sinks[i] = vec.V3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sinks {
			if karp {
				KernelKarp(s, src, 1e-4)
			} else {
				KernelLibm(s, src, 1e-4)
			}
		}
	}
	b.ReportMetric(float64(b.N*benchSrc*benchSinks)/b.Elapsed().Seconds()/1e6, "Minter/s")
}

func benchBatch(b *testing.B, karp bool) {
	rng := rand.New(rand.NewSource(4))
	soa, _ := randomSoA(rng, benchSrc)
	sx := make([]float64, benchSinks)
	sy := make([]float64, benchSinks)
	sz := make([]float64, benchSinks)
	ax := make([]float64, benchSinks)
	ay := make([]float64, benchSinks)
	az := make([]float64, benchSinks)
	pp := make([]float64, benchSinks)
	for i := 0; i < benchSinks; i++ {
		sx[i], sy[i], sz[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if karp {
			KernelBatchKarp(sx, sy, sz, soa, 1e-4, ax, ay, az, pp)
		} else {
			KernelBatchLibm(sx, sy, sz, soa, 1e-4, ax, ay, az, pp)
		}
	}
	b.ReportMetric(float64(b.N*benchSrc*benchSinks)/b.Elapsed().Seconds()/1e6, "Minter/s")
}
