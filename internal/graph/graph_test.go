package graph

import (
	"errors"
	"strings"
	"testing"
)

func TestFromNetsValidation(t *testing.T) {
	if _, err := FromNets(0, nil, nil, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("nv=0: err = %v, want ErrEmpty", err)
	}
	if _, err := FromNets(MaxVertices+1, nil, nil, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over cap: err = %v, want ErrTooLarge", err)
	}
	if _, err := FromNets(2, []int64{1}, nil, nil); !errors.Is(err, ErrFormat) {
		t.Fatalf("weight len mismatch: err = %v, want ErrFormat", err)
	}
	if _, err := FromNets(2, []int64{1, 0}, nil, nil); !errors.Is(err, ErrFormat) {
		t.Fatalf("zero weight: err = %v, want ErrFormat", err)
	}
	if _, err := FromNets(3, nil, [][]int32{{0, 1, 1}}, nil); !errors.Is(err, ErrFormat) {
		t.Fatalf("duplicate pin: err = %v, want ErrFormat", err)
	}
	if _, err := FromNets(3, nil, [][]int32{{0, 3}}, nil); !errors.Is(err, ErrFormat) {
		t.Fatalf("out-of-range pin: err = %v, want ErrFormat", err)
	}
	h, err := FromNets(3, []int64{2, 3, 4}, [][]int32{{0, 1}, {0, 1, 2}}, []int64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 3 || h.NumNets() != 2 || h.NumPins() != 5 {
		t.Fatalf("shape = %d/%d/%d", h.NumVertices(), h.NumNets(), h.NumPins())
	}
	if h.TotalWeight() != 9 || h.MaxVertexWeight() != 4 || h.VertexWeight(1) != 3 {
		t.Fatalf("weights = %d/%d/%d", h.TotalWeight(), h.MaxVertexWeight(), h.VertexWeight(1))
	}
}

func TestFromEdges(t *testing.T) {
	if _, err := FromEdges(2, nil, []Edge{{U: 1, V: 1}}); !errors.Is(err, ErrFormat) {
		t.Fatalf("self-loop: err = %v, want ErrFormat", err)
	}
	h, err := FromEdges(3, nil, []Edge{{U: 0, V: 1}, {U: 1, V: 2, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNets() != 2 || h.nwgt[0] != 1 || h.nwgt[1] != 4 {
		t.Fatalf("nets = %d, weights = %v", h.NumNets(), h.nwgt)
	}
}

func TestInduceDropsSmallNets(t *testing.T) {
	h, err := FromNets(4, nil, [][]int32{{0, 1}, {1, 2, 3}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	side := []uint8{0, 0, 1, 1}
	left, right := new(Hypergraph), new(Hypergraph)
	h.induce(side, left, right)
	if left.NumVertices() != 2 || left.NumNets() != 1 {
		t.Fatalf("left = %d vertices, %d nets", left.NumVertices(), left.NumNets())
	}
	// net {1,2,3} loses vertex 1 on the right but keeps {2,3} — two pins.
	if right.NumVertices() != 2 || right.NumNets() != 2 {
		t.Fatalf("right = %d vertices, %d nets", right.NumVertices(), right.NumNets())
	}
	if left.TotalWeight()+right.TotalWeight() != h.TotalWeight() {
		t.Fatal("induce lost weight")
	}
}

func TestCutWeight(t *testing.T) {
	h, err := FromNets(4, nil, [][]int32{{0, 1}, {1, 2}, {2, 3}}, []int64{10, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := CutWeight(h, []uint8{0, 0, 1, 1}); got != 3 {
		t.Fatalf("cut = %d, want 3", got)
	}
	if got := CutWeight(h, []uint8{0, 1, 0, 1}); got != 18 {
		t.Fatalf("cut = %d, want 18", got)
	}
}

func TestLoadGraphRoundTrip(t *testing.T) {
	const src = `% a 2x3 grid with vertex and edge weights
6 7 11
2 2 1  4 2
1 1 1  3 3  5 1
4 2 3  6 4
3 1 2  5 6
2 2 1  4 6  6 1
5 3 4  5 1
`
	h, err := LoadGraph(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 6 || h.NumNets() != 7 {
		t.Fatalf("shape = %d vertices, %d nets", h.NumVertices(), h.NumNets())
	}
	if h.TotalWeight() != 2+1+4+3+2+5 {
		t.Fatalf("total = %d", h.TotalWeight())
	}
}

func TestLoadGraphUnweighted(t *testing.T) {
	const src = "3 2\n2\n1 3\n2\n"
	h, err := LoadGraph(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 3 || h.NumNets() != 2 || h.TotalWeight() != 3 {
		t.Fatalf("shape = %d/%d/%d", h.NumVertices(), h.NumNets(), h.TotalWeight())
	}
}

func TestLoadGraphErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want error
	}{
		{"empty", "", ErrEmpty},
		{"comment only", "% nothing\n", ErrEmpty},
		{"zero vertices", "0 0\n", ErrEmpty},
		{"bad header", "a b\n1\n", ErrFormat},
		{"header fields", "1 2 3 4\n", ErrFormat},
		{"bad fmt", "2 1 99\n2\n1\n", ErrFormat},
		{"over vertex cap", "99999999 0\n", ErrTooLarge},
		{"neighbour range", "2 1\n3\n1\n", ErrFormat},
		{"self loop", "2 1\n1\n2\n", ErrFormat},
		{"missing lines", "3 1\n2\n", ErrFormat},
		{"trailing", "2 1\n2\n1\n1 2\n", ErrFormat},
		{"zero vweight", "2 1 10\n0 2\n1 1\n", ErrFormat},
		{"missing eweight", "2 1 1\n2\n1 5\n", ErrFormat},
		{"negative", "2 1\n-2\n1\n", ErrFormat},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadGraph(strings.NewReader(c.src)); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestLoadHypergraph(t *testing.T) {
	const src = `% 3 nets over 4 vertices, net + vertex weights
3 4 11
2 1 2
7 2 3 4
1 1 4
3
1
2
5
`
	h, err := LoadHypergraph(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 4 || h.NumNets() != 3 || h.NumPins() != 7 {
		t.Fatalf("shape = %d/%d/%d", h.NumVertices(), h.NumNets(), h.NumPins())
	}
	if h.TotalWeight() != 11 || h.nwgt[1] != 7 {
		t.Fatalf("weights = %d / %v", h.TotalWeight(), h.nwgt)
	}
}

func TestLoadHypergraphErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want error
	}{
		{"empty", "", ErrEmpty},
		{"zero vertices", "1 0\n1 2\n", ErrEmpty},
		{"bad fmt", "1 2 7\n1 2\n", ErrFormat},
		{"one pin", "1 2\n1\n", ErrFormat},
		{"pin range", "1 2\n1 5\n", ErrFormat},
		{"duplicate pin", "1 3\n2 2\n", ErrFormat},
		{"missing nets", "2 3\n1 2\n", ErrFormat},
		{"missing vweights", "1 2 10\n1 2\n5\n", ErrFormat},
		{"vweight fields", "1 2 10\n1 2\n5 5\n1\n", ErrFormat},
		{"trailing", "1 2\n1 2\nextra\n", ErrFormat},
		{"over net cap", "99999999 2\n", ErrTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadHypergraph(strings.NewReader(c.src)); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestGenerators(t *testing.T) {
	g, err := GridGraph(4, 5, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 20 || g.NumNets() != 4*4+3*5 {
		t.Fatalf("grid shape = %d/%d", g.NumVertices(), g.NumNets())
	}
	r, err := RingGraph(10, 4, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumVertices() != 10 || r.NumNets() != 14 || r.TotalWeight() != 10 {
		t.Fatalf("ring shape = %d/%d/%d", r.NumVertices(), r.NumNets(), r.TotalWeight())
	}
	hy, err := RandomHypergraph(30, 20, 5, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if hy.NumVertices() != 30 || hy.NumNets() != 20 {
		t.Fatalf("hypergraph shape = %d/%d", hy.NumVertices(), hy.NumNets())
	}
	if _, err := GridGraph(0, 3, 1, 1); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad grid: %v", err)
	}
	if _, err := RingGraph(2, 0, 1, 1); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad ring: %v", err)
	}
	if _, err := RandomHypergraph(1, 1, 2, 1, 1); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad hypergraph: %v", err)
	}
}
