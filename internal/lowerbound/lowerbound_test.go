package lowerbound

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTriangleBoundSpecializes(t *testing.T) {
	// Thm 1.1 at k=3, ℓ=n gives Ω(n/√μ).
	got := TriangleListingRounds(1000, 100)
	want := 1000.0 / math.Sqrt(100)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %f want %f", got, want)
	}
}

func TestBoundsMonotone(t *testing.T) {
	f := func(nRaw, muRaw uint16) bool {
		n := float64(nRaw%1000) + 10
		mu := float64(muRaw%500) + 10
		// More memory never increases any of the round bounds.
		if KCliqueListingRounds(n, 3, mu*2, n) > KCliqueListingRounds(n, 3, mu, n) {
			return false
		}
		if FullyMergeRounds(n, 20, 1000, 5, 50, mu*2) > FullyMergeRounds(n, 20, 1000, 5, 50, mu)+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKCliqueMaxEnvelope(t *testing.T) {
	// A clique on v nodes has C(v,k) k-cliques and C(v,2) edges; the
	// m^(k/2) envelope must dominate.
	for v := 4; v <= 12; v++ {
		m := float64(v * (v - 1) / 2)
		for k := 3; k <= 5; k++ {
			cnt := binom(v, k)
			if cnt > KCliqueMax(m, k) {
				t.Fatalf("K_%d: %f cliques of size %d exceed m^(k/2)=%f", v, cnt, k, KCliqueMax(m, k))
			}
		}
	}
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 1, 1, 1}); math.Abs(h-2) > 1e-12 {
		t.Fatalf("uniform-4 entropy %f", h)
	}
	if h := Entropy([]float64{5, 0, 0}); h != 0 {
		t.Fatalf("point mass entropy %f", h)
	}
	if h := Entropy(nil); h != 0 {
		t.Fatalf("empty entropy %f", h)
	}
}

func TestStreamingBounds(t *testing.T) {
	if StreamingSimulationRounds(10, 4, 3) != 120 {
		t.Fatal("naive bound")
	}
	if CachedSimulationRounds(10, 4, 3) != 70 {
		t.Fatal("cached bound")
	}
	// min(n·M, √(|I|·M)) + D: the n·M term binds here (40 < 200).
	if OneWayMergeRounds(10, 4, 10000, 7) != 47 {
		t.Fatal("one-way bound")
	}
	if OneWayMergeRounds(1000, 4, 10000, 7) != math.Sqrt(40000)+7 {
		t.Fatal("one-way bound (√ branch)")
	}
	if ComposableMergeRounds(4, 10, 1e9, 3) <= 0 {
		t.Fatal("composable bound")
	}
}

// TriangleListingRounds specializes Theorem 1.1 to k=3 with ℓ=n:
// Ω(n/√μ).
func TriangleListingRounds(n, mu float64) float64 {
	return KCliqueListingRounds(n, 3, mu, n)
}
