package bisectlb

import (
	"errors"
	"math"
	"testing"
)

// mustParseAlgorithm parses an algorithm name known to be valid.
func mustParseAlgorithm(s string) Algorithm {
	a, err := ParseAlgorithm(s)
	if err != nil {
		panic(err)
	}
	return a
}

// TestBalanceTypedErrors is the facade-hardening contract: Balance with a
// nil problem, a bad processor count, or an α-aware algorithm without (or
// with an out-of-range) Alpha returns the matching typed error and never
// panics. The lbserve service hands user input straight to this path.
func TestBalanceTypedErrors(t *testing.T) {
	ok, err := NewSyntheticProblem(1, 0.1, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    Problem
		n    int
		cfg  Config
		want error
	}{
		{"nil problem HF", nil, 4, Config{Algorithm: HFAlgorithm}, ErrNilProblem},
		{"nil problem BA", nil, 4, Config{Algorithm: BAAlgorithm}, ErrNilProblem},
		{"nil problem PHF", nil, 4, Config{Algorithm: PHFAlgorithm, Alpha: 0.1}, ErrNilProblem},
		{"nil problem parallel-BA", nil, 4, Config{Algorithm: mustParseAlgorithm("parallel-BA")}, ErrNilProblem},
		{"zero n", ok, 0, Config{Algorithm: HFAlgorithm}, ErrBadN},
		{"negative n", ok, -3, Config{Algorithm: BAAlgorithm}, ErrBadN},
		{"PHF without alpha", ok, 4, Config{Algorithm: PHFAlgorithm}, ErrAlphaRequired},
		{"BA-HF without alpha", ok, 4, Config{Algorithm: BAHFAlgorithm}, ErrAlphaRequired},
		{"parallel-PHF without alpha", ok, 4, Config{Algorithm: mustParseAlgorithm("parallel-PHF")}, ErrAlphaRequired},
		{"PHF alpha too large", ok, 4, Config{Algorithm: PHFAlgorithm, Alpha: 0.7}, ErrBadAlpha},
		{"BA-HF alpha negative", ok, 4, Config{Algorithm: BAHFAlgorithm, Alpha: -0.1}, ErrBadAlpha},
		{"BA-HF negative kappa", ok, 4, Config{Algorithm: BAHFAlgorithm, Alpha: 0.2, Kappa: -1}, ErrBadKappa},
		{"BA-HF NaN kappa", ok, 4, Config{Algorithm: BAHFAlgorithm, Alpha: 0.2, Kappa: math.NaN()}, ErrBadKappa},
		{"unknown algorithm", ok, 4, Config{Algorithm: Algorithm(99)}, ErrUnknownAlgorithm},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Balance(tc.p, tc.n, tc.cfg)
			if res != nil {
				t.Fatalf("Balance returned a result alongside expected error %v", tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Balance error = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// TestBalanceValidInputStillWorks guards against over-eager validation:
// every algorithm still succeeds on a well-formed request.
func TestBalanceValidInputStillWorks(t *testing.T) {
	p, err := NewSyntheticProblem(1, 0.1, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Algorithm: HFAlgorithm},
		{Algorithm: BAAlgorithm},
		{Algorithm: BAHFAlgorithm, Alpha: 0.1, Kappa: 2},
		{Algorithm: PHFAlgorithm, Alpha: 0.1},
		{Algorithm: mustParseAlgorithm("parallel-BA")},
		{Algorithm: mustParseAlgorithm("parallel-PHF"), Alpha: 0.1},
	} {
		// Problems are stateless roots: rebuilding per run keeps IDs
		// deterministic without cross-algorithm interference.
		q, _ := NewSyntheticProblem(1, 0.1, 0.5, 7)
		res, err := Balance(q, 16, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
		if err := res.CheckPartition(1e-9); err != nil {
			t.Fatalf("%v: %v", cfg.Algorithm, err)
		}
	}
	_ = p
}

func TestParseAlgorithm(t *testing.T) {
	for in, want := range map[string]Algorithm{
		"HF": HFAlgorithm, "hf": HFAlgorithm,
		"BA": BAAlgorithm, "ba-hf": BAHFAlgorithm, "BAHF": BAHFAlgorithm,
		"PHF": PHFAlgorithm, " phf ": PHFAlgorithm,
		"parallel-BA": BAAlgorithm, "pba": BAAlgorithm,
		"Parallel-PHF": PHFAlgorithm, "PPHF": PHFAlgorithm,
	} {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("quantum"); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("ParseAlgorithm(quantum) error = %v, want ErrUnknownAlgorithm", err)
	}
}
