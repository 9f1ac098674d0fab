package quorum

import (
	"fmt"
	"math/rand/v2"
)

// FPP is the finite-projective-plane quorum system (Maekawa, TOCS 1985): for
// a prime order q, the n = q²+q+1 points of the projective plane PG(2,q)
// are the servers and the n lines (each containing exactly q+1 points) are
// the quorums. Any two lines meet in exactly one point, so the system is
// strict with the minimum possible quorum size Θ(√n) — optimal load — but
// its availability is only q+1 = Θ(√n), again exhibiting the strict
// trade-off.
type FPP struct {
	order int     // the prime q
	lines [][]int // each line is a sorted list of point indices
}

var _ System = (*FPP)(nil)

// NewFPP constructs the projective plane of the given prime order. It
// returns an error if order is not prime (the construction below requires a
// field; prime powers would need GF(p^m) arithmetic, which the experiments
// do not use).
func NewFPP(order int) (*FPP, error) {
	if order < 2 || !isPrime(order) {
		return nil, fmt.Errorf("quorum: projective plane order %d is not prime", order)
	}
	return &FPP{order: order, lines: buildPlane(order)}, nil
}

// MustFPP is NewFPP for experiment configurations with known-good orders.
func MustFPP(order int) *FPP {
	f, err := NewFPP(order)
	if err != nil {
		panic(err)
	}
	return f
}

// buildPlane enumerates the lines of PG(2, q) for prime q using homogeneous
// coordinates over GF(q). Points and lines are triples (a, b, c), not all
// zero, up to scalar multiple; point (x, y, z) lies on line (a, b, c) iff
// ax + by + cz ≡ 0 (mod q). Normalizing the first nonzero coordinate to 1
// yields canonical representatives: (1, y, z), (0, 1, z), (0, 0, 1).
func buildPlane(q int) [][]int {
	type triple struct{ a, b, c int }
	var points []triple
	for y := 0; y < q; y++ {
		for z := 0; z < q; z++ {
			points = append(points, triple{1, y, z})
		}
	}
	for z := 0; z < q; z++ {
		points = append(points, triple{0, 1, z})
	}
	points = append(points, triple{0, 0, 1})

	index := make(map[triple]int, len(points))
	for i, p := range points {
		index[p] = i
	}

	// Lines have the same canonical triples as points (the plane is
	// self-dual).
	lines := make([][]int, 0, len(points))
	for _, l := range points {
		var line []int
		for i, p := range points {
			if (l.a*p.a+l.b*p.b+l.c*p.c)%q == 0 {
				line = append(line, i)
			}
		}
		lines = append(lines, line)
	}
	return lines
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// N returns q²+q+1.
func (f *FPP) N() int { return f.order*f.order + f.order + 1 }

// Size returns q+1, the number of points on every line.
func (f *FPP) Size() int { return f.order + 1 }

// Strict implements System; any two lines of a projective plane meet.
func (f *FPP) Strict() bool { return true }

// Name implements System.
func (f *FPP) Name() string { return fmt.Sprintf("fpp(q=%d,n=%d)", f.order, f.N()) }

// Pick returns a uniformly random line.
func (f *FPP) Pick(r *rand.Rand) []int {
	return f.PickInto(nil, r)
}

// PickInto implements IntoPicker; it consumes r identically to Pick.
func (f *FPP) PickInto(dst []int, r *rand.Rand) []int {
	return append(dst[:0], f.lines[r.IntN(len(f.lines))]...)
}

// Lines returns the number of lines (equal to the number of points).
func (f *FPP) Lines() int { return len(f.lines) }

// LineAt returns a copy of line i's point set; the availability analysis
// enumerates lines with it.
func (f *FPP) LineAt(i int) []int {
	out := make([]int, len(f.lines[i]))
	copy(out, f.lines[i])
	return out
}
