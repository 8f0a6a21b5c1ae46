package expander

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestGeneratedGraphsPinned pins the adjacency lists of every
// hill-climbed graph that `lbsim -all` builds at quick and default scale
// (Appranks <= 20, 2 <= Degree < Nodes). The climb accepts or rejects each
// swap on exact equality of float scores, so any change to the scoring
// arithmetic that is not bit-for-bit identical shows up here as a moved
// graph, and with it every figure that runs on the graph.
func TestGeneratedGraphsPinned(t *testing.T) {
	cases := []struct {
		appranks, nodes, degree int
		sha256                  string
	}{
		{4, 4, 2,
			"214dd4ae87a675090d83bea9abdcb9ac89ebe9795850fab1e761698952eb3208"},
		{4, 4, 3,
			"d35d81fb16af8124ba50b20ebbf36f4fa9f9a838ac0b8b2bebf25739cbf80ad6"},
		{8, 4, 2,
			"14689c76f09198786cfb9c4ff2aee7af243a605bf58473e26817864942951370"},
		{8, 4, 3,
			"05753002977831096cce3373d5d9d0d1786f3f1c5244ad3009eec20469d2f90b"},
		{8, 8, 2,
			"d91bb00d28213f518ed8c0e1f868e44d3c51eb951fee95e585ed0632fb507136"},
		{8, 8, 3,
			"ec11959c9123c7cab482dd0965364beafcacb0456509d79eb286e26a38f7d168"},
		{8, 8, 4,
			"f425e34ca26d2aa5fd2531d8ff11aea16637582a2d6e034dd7ead0296eede5dd"},
		{16, 8, 2,
			"cf8e0750e12fcaaec92ffef547389e20a9277e72fd4c40613c3ba38dfcd9fc2a"},
		{16, 8, 3,
			"a6fa2b73cee5ad4ae371317287b2d8713aa07bbd4ec3df6a841e8993c5b013b7"},
		{16, 8, 4,
			"3b9716e0680211b4cca1714d76b4f5644ae6a9e8bf8a3b5ea282dcc751e0b81b"},
		{16, 16, 2,
			"311e7d5ab973b24e5bb63c885888dc6f7e0edd171087fcd2cbeeb991fdd8aa72"},
		{16, 16, 3,
			"45a4a1224ababc279ccc074d030be2a6fd8440ce5466ac296a2c38e7999e5687"},
		{16, 16, 4,
			"93f5db4b9238091f89d74bbc0abfd09f9ec5de2ff0e5dd80591166cd89139fae"},
		{16, 16, 8,
			"6ea859e0bf4506b01c6a62483c860eca189e933ef6215f147237524f0bd15c52"},
	}
	for _, c := range cases {
		p := Params{Appranks: c.appranks, Nodes: c.nodes, Degree: c.degree, Seed: 1}
		sum := sha256.Sum256([]byte(fmt.Sprint(MustGenerate(p).Adj)))
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%dx%d degree %d: adjacency sha256 = %s, want %s", c.appranks, c.nodes, c.degree, got, c.sha256)
		}
	}
}
