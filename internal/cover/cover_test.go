package cover

import (
	"slices"
	"testing"
	"testing/quick"
)

// expand returns every set of the (a,b,c) cover, set i expanded from
// the i-th multiset that Next visits.
func expand(a, b, c int) [][]int {
	cv := New(a, b, c)
	var out [][]int
	ms := make([]int, c)
	for {
		out = append(out, cv.AppendSet(nil, ms))
		if !Next(ms, cv.Groups) {
			return out
		}
	}
}

// covers reports whether some set in cov contains every element of want.
func covers(cov [][]int, want []int) bool {
	for _, s := range cov {
		in := make(map[int]bool, len(s))
		for _, e := range s {
			in[e] = true
		}
		ok := true
		for _, e := range want {
			if !in[e] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestCoverAllTriples(t *testing.T) {
	a, b, c := 12, 6, 3
	cov := expand(a, b, c)
	for x := 0; x < a; x++ {
		for y := x; y < a; y++ {
			for z := y; z < a; z++ {
				if !covers(cov, []int{x, y, z}) {
					t.Fatalf("triple {%d,%d,%d} uncovered", x, y, z)
				}
			}
		}
	}
}

func TestCoverSetSizes(t *testing.T) {
	a, b, c := 30, 9, 3
	cov := expand(a, b, c)
	for i, s := range cov {
		if len(s) > b+c {
			t.Fatalf("set %d has %d elements > b+c=%d", i, len(s), b+c)
		}
		if !slices.IsSorted(s) || len(slices.Compact(slices.Clone(s))) != len(s) {
			t.Fatalf("set %d = %v is not ascending and distinct", i, s)
		}
	}
	if len(cov) != Size(a, b, c) {
		t.Fatalf("got %d sets, Size predicts %d", len(cov), Size(a, b, c))
	}
}

func TestCoverPairsProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw%20) + 2
		b := int(bRaw%10) + 2
		cov := expand(a, b, 2)
		for x := 0; x < a; x++ {
			for y := x; y < a; y++ {
				if !covers(cov, []int{x, y}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverK4(t *testing.T) {
	a, b, c := 8, 4, 4
	cov := expand(a, b, c)
	// Check a sample of 4-subsets.
	for x := 0; x < a; x++ {
		for y := x + 1; y < a; y++ {
			if !covers(cov, []int{x, y, (y + 1) % a, (y + 2) % a}) {
				t.Fatalf("4-subset with {%d,%d} uncovered", x, y)
			}
		}
	}
}

func TestCoverDegenerate(t *testing.T) {
	cov := expand(3, 3, 3)
	if !covers(cov, []int{0, 1, 2}) {
		t.Fatal("whole set uncovered")
	}
}

// TestNextVisitsMultisets walks Next from the all-zero tuple: it must
// visit exactly C(g+c-1, c) non-decreasing tuples over [0, g), each
// lexicographically greater than the one before, and report false on
// the last without changing it.
func TestNextVisitsMultisets(t *testing.T) {
	for g := 1; g <= 6; g++ {
		for c := 1; c <= 4; c++ {
			ms := make([]int, c)
			visited := 1
			for prev := slices.Clone(ms); Next(ms, g); prev = slices.Clone(ms) {
				if !slices.IsSorted(ms) || ms[0] < 0 || ms[c-1] >= g {
					t.Fatalf("g=%d c=%d: %v is not a non-decreasing tuple over [0, %d)", g, c, ms, g)
				}
				if slices.Compare(prev, ms) >= 0 {
					t.Fatalf("g=%d c=%d: %v follows %v", g, c, ms, prev)
				}
				visited++
			}
			want := 1
			for i := 0; i < c; i++ {
				want = want * (g + i) / (i + 1)
			}
			if visited != want {
				t.Errorf("g=%d c=%d: visited %d tuples, want C(g+c-1, c) = %d", g, c, visited, want)
			}
			if last := slices.Repeat([]int{g - 1}, c); !slices.Equal(ms, last) {
				t.Errorf("g=%d c=%d: Next changed the last tuple to %v", g, c, ms)
			}
		}
	}
}
