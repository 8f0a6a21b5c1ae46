package expander

import (
	"fmt"
	"testing"
)

// BenchmarkGenerateLarge measures configuration-model generation at the
// paper's largest size.
func BenchmarkGenerateLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := Generate(Params{Appranks: 128, Nodes: 64, Degree: 4, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = g
	}
}

var isoSink float64

// BenchmarkIsoperimetric measures the exact isoperimetric number on a
// 16-apprank graph with one rank per node and on fig6b's shape, two ranks
// per node on 8 nodes, whose climbs score thousands of candidates.
func BenchmarkIsoperimetric(b *testing.B) {
	for _, p := range []Params{
		{Appranks: 16, Nodes: 16, Degree: 4, Seed: 1},
		{Appranks: 16, Nodes: 8, Degree: 2, Seed: 1},
	} {
		g := MustGenerate(p)
		b.Run(fmt.Sprintf("%dx%d", p.Appranks, p.Nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				isoSink = g.IsoperimetricNumber()
			}
		})
	}
}

// BenchmarkGenerateClimbed measures the set-up cost of one of fig6b's
// graphs: its hill climb never reaches the target, so it runs all 3,000
// iterations.
func BenchmarkGenerateClimbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustGenerate(Params{Appranks: 16, Nodes: 8, Degree: 2, Seed: 1})
	}
}

// BenchmarkSpectralGap measures deflated power iteration at 128 appranks.
func BenchmarkSpectralGap(b *testing.B) {
	g := MustGenerate(Params{Appranks: 128, Nodes: 64, Degree: 4, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SpectralGap()
	}
}
