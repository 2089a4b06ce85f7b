package verify

import (
	"testing"

	"bisectlb/internal/bisect"
)

func TestGenDeterministic(t *testing.T) {
	a, b := NewGen(99), NewGen(99)
	for i := 0; i < 200; i++ {
		if ia, ib := a.Instance(), b.Instance(); ia != ib {
			t.Fatalf("instance %d diverged: %v vs %v", i, ia, ib)
		}
	}
}

func TestGenInstanceConstraints(t *testing.T) {
	g := NewGen(7)
	seen := map[Family]int{}
	for i := 0; i < 2000; i++ {
		in := g.Instance()
		seen[in.Family]++
		if in.N < 1 || in.N > 2048 {
			t.Fatalf("N out of range: %v", in)
		}
		if !(in.Kappa > 0) {
			t.Fatalf("κ not positive: %v", in)
		}
		switch in.Family {
		case FamilyUniform:
			if !(in.Alpha >= 0.05 && in.Alpha <= 0.45 && in.Hi >= in.Alpha+0.02 && in.Hi <= 0.5) {
				t.Fatalf("uniform interval out of range: %v", in)
			}
			if !(in.Weight >= 1) {
				t.Fatalf("weight out of range: %v", in)
			}
		case FamilyFixed:
			if !(in.Alpha >= 0.05 && in.Alpha <= 0.5) {
				t.Fatalf("fixed α out of range: %v", in)
			}
		case FamilyList:
			if !(in.Alpha >= 0.05 && in.Alpha <= 1.0/3) {
				t.Fatalf("list α out of range: %v", in)
			}
			if in.Elems < 8*in.N {
				t.Fatalf("list too short for its N: %v", in)
			}
		case FamilyFEM:
			if in.N > 32 {
				t.Fatalf("FEM N out of range: %v", in)
			}
		case FamilyGraph:
			if in.N > 8 || in.Alpha <= 0 {
				t.Fatalf("graph instance out of range: %v", in)
			}
		case FamilySpatial:
			if in.N > 12 || in.Alpha <= 0 {
				t.Fatalf("spatial instance out of range: %v", in)
			}
		case FamilyQuadrature:
			if in.N > QuadratureMaxN || in.Alpha != 0 {
				t.Fatalf("quadrature instance out of range: %v", in)
			}
		case FamilySearchTree:
			if in.N > SearchTreeMaxN || in.Alpha != 0 {
				t.Fatalf("searchtree instance out of range: %v", in)
			}
		}
		p, err := in.Problem()
		if err != nil {
			t.Fatalf("generated instance does not materialise: %v: %v", in, err)
		}
		flatFamily := in.Family == FamilyUniform || in.Family == FamilyFixed || in.Family == FamilyList
		if _, _, ok := bisect.FlatOf(p); ok != flatFamily {
			t.Fatalf("flat availability wrong for %v", in)
		}
	}
	for _, f := range AllFamilies {
		if seen[f] == 0 {
			t.Fatalf("family %v never generated", f)
		}
	}
}

func TestGenFamilyRestriction(t *testing.T) {
	g := NewGen(3)
	g.Families = []Family{FamilyFixed}
	for i := 0; i < 50; i++ {
		if in := g.Instance(); in.Family != FamilyFixed {
			t.Fatalf("restricted generator drew %v", in)
		}
	}
}

func TestShrinkProducesSimplerInstances(t *testing.T) {
	g := NewGen(11)
	for i := 0; i < 200; i++ {
		in := g.Instance()
		for _, c := range in.Shrink() {
			if c == in {
				t.Fatalf("shrink returned the instance itself: %v", in)
			}
			if c.N > in.N {
				t.Fatalf("shrink grew N: %v -> %v", in, c)
			}
			if c.Family == FamilyList && c.Elems > in.Elems {
				t.Fatalf("shrink grew elems: %v -> %v", in, c)
			}
			if _, err := c.Problem(); err != nil {
				t.Fatalf("shrunk instance invalid: %v: %v", c, err)
			}
		}
	}
}

func TestGenSpeeds(t *testing.T) {
	g := NewGen(5)
	sp := g.Speeds(17)
	if len(sp) != 17 {
		t.Fatalf("got %d speeds", len(sp))
	}
	for _, s := range sp {
		if !(s > 0) {
			t.Fatalf("non-positive speed %v", s)
		}
	}
}
