package workload

import "testing"

var sinkAccess Access

// BenchmarkSyntheticNext measures one generator draw, cycling through
// the four profiles of the paper's headline mix, one thread each, as
// the cores of that run do.
func BenchmarkSyntheticNext(b *testing.B) {
	var gens []*Synthetic
	for i, name := range []string{"429.mcf", "470.lbm", "433.milc", "462.libquantum"} {
		gens = append(gens, NewSynthetic(MustGet(name), i, 42))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sinkAccess = gens[i%len(gens)].Next()
	}
}
