package core

import (
	"fmt"
	"sort"
)

// prefixSums returns P with P[0]=0 and P[i] = Σ x[:i].
func prefixSums(x []float64) []float64 {
	return prefixSumsInto(nil, x)
}

// prefixSumsInto is prefixSums writing into dst, reusing its backing
// storage when the capacity suffices. The group-count search recomputes
// the same prefix vector for every candidate n; the deciders hoist it
// into their scratch instead.
func prefixSumsInto(dst []float64, x []float64) []float64 {
	if cap(dst) < len(x)+1 {
		dst = make([]float64, len(x)+1)
	}
	dst = dst[:len(x)+1]
	dst[0] = 0
	for i, v := range x {
		dst[i+1] = dst[i] + v
	}
	return dst
}

// checkPartition validates a partition request of nMod modules into n
// groups.
func checkPartition(nMod, n int) error {
	if n < 1 || n > nMod {
		return fmt.Errorf("core: partition into %d groups of %d modules", n, nMod)
	}
	return nil
}

// greedyPartition implements the inner loop of Algorithm 1: split the
// module chain into n consecutive groups so that each group's summed MPP
// current lands as close as possible to Iideal = total/n, scanning left
// to right and placing each boundary at the prefix point nearest the
// running target. O(N) via a monotone two-pointer walk over the prefix
// sums. Every group receives at least one module.
func greedyPartition(impp []float64, n int) ([]int, error) {
	if err := checkPartition(len(impp), n); err != nil {
		return nil, err
	}
	starts := make([]int, n)
	greedyPartitionInto(starts, prefixSums(impp))
	return starts, nil
}

// greedyPartitionInto runs the greedy boundary walk over the
// already-computed prefix sums p (p[0]=0, len(p) = nMod+1), writing the
// n = len(starts) group starts into starts. The caller has validated
// 1 ≤ n ≤ nMod; every entry of starts is overwritten, so the slice can
// be reused across candidates without clearing.
func greedyPartitionInto(starts []int, p []float64) {
	n := len(starts)
	nMod := len(p) - 1
	starts[0] = 0
	if n == 1 {
		return
	}
	iIdeal := p[nMod] / float64(n)
	start := 0
	for j := 1; j < n; j++ {
		// Boundary candidates for the end (exclusive) of group j-1:
		// must leave at least one module per remaining group.
		loEnd := start + 1
		hiEnd := nMod - (n - j)
		target := p[start] + iIdeal
		// Smallest end with cumulative sum ≥ target.
		e := sort.SearchFloat64s(p[loEnd:hiEnd+1], target) + loEnd
		if e > hiEnd {
			e = hiEnd
		}
		// The closest of e and e−1 to the target.
		if e > loEnd {
			if target-p[e-1] <= p[e]-target {
				e--
			}
		}
		starts[j] = e
		start = e
	}
}

// dpPartition is the exhaustive counterpart used by the EHTR
// reconstruction: dynamic programming over all consecutive partitions
// minimising Σ (groupSum − Iideal)². Because the total Σ groupSum is the
// same for every partition, that objective equals Σ groupSum² − total²/n,
// so ranking partitions by Σ groupSum² gives the same optima — and that
// cost does not depend on the group count n. The DP therefore fills one
// shared table whose rows serve every candidate n (tableInto), and each
// group count is read off by a backward walk (reconstructInto).
func dpPartition(impp []float64, n int) ([]int, error) {
	if err := checkPartition(len(impp), n); err != nil {
		return nil, err
	}
	starts := make([]int, n)
	var dp dpBuffers
	if err := dp.tableInto(prefixSums(impp), n); err != nil {
		return nil, err
	}
	if err := dp.reconstructInto(starts); err != nil {
		return nil, err
	}
	return starts, nil
}

// dpBuffers holds the shared dynamic-programming table of the exhaustive
// partitioner. The EHTR decider builds the table once per control period
// (tableInto up to the largest candidate group count) and reconstructs
// each candidate from it, reusing these arrays so the steady-state
// decision path allocates nothing.
type dpBuffers struct {
	prev, cur []float64
	choice    [][]int32
	nMod      int // module count of the last tableInto build
	rows      int // group-count rows of the last tableInto build
}

// tableInto fills the DP table over the already-computed prefix sums p
// (p[0]=0, len(p) = nMod+1) for every group count up to nmax.
// Row j, entry e holds the minimal Σ groupSum² splitting modules [0,e)
// into j consecutive non-empty groups; choice[j][e] records the leftmost
// argmin start of the last group, which is all reconstruction needs.
//
// Each row is bounded by Knuth's window. The row cost
// prev[s] + (p[e]−p[s])² satisfies the quadrangle inequality (a convex
// function of the difference of two non-decreasing prefix sums), so the
// leftmost argmin — exactly what an ascending scan with a strict `<`
// keeps — is monotone in both indices:
// choice[j−1][e] ≤ choice[j][e] ≤ choice[j][e+1]. Filling row j with e
// descending, entry e therefore scans only
// s ∈ [max(choice[j−1][e], j−1), min(e−1, choice[j][e+1])]. The window
// widths telescope along each diagonal e − j = const, so the whole
// table costs O(N·(N+nmax)) instead of the O(nmax·N²) full scan. On
// live WLTC temperatures at N = 500 (tables of up to 160 rows) that is
// about 187k cost evaluations per table against a monotone
// divide-and-conquer row solve's 269k, with no recursion stack. Inside
// each window the comparisons, tie-breaks and floating-point sums are
// the ones the full scan would have made, so the chosen starts are
// bit-identical to the quadratic reference (TestDPTableMatchesNaive is
// the referee).
func (dp *dpBuffers) tableInto(p []float64, nmax int) error {
	nMod := len(p) - 1
	if err := checkPartition(nMod, nmax); err != nil {
		return err
	}
	dp.nMod, dp.rows = nMod, nmax

	// Rolling value rows keep the cost memory O(N); only choice is
	// retained per row. Stale contents are harmless: row j only reads
	// prev[s] for s ∈ [j−1, e−1], all written by row j−1 (or row 1's
	// special case), and reconstruction only reads choice entries
	// written by this call.
	if cap(dp.prev) < nMod+1 {
		dp.prev = make([]float64, nMod+1)
		dp.cur = make([]float64, nMod+1)
	}
	prev, cur := dp.prev[:nMod+1], dp.cur[:nMod+1]
	for len(dp.choice) < nmax+1 {
		dp.choice = append(dp.choice, nil)
	}
	choice := dp.choice[:nmax+1]
	for j := range choice {
		if cap(choice[j]) < nMod+1 {
			choice[j] = make([]int32, nMod+1)
			dp.choice[j] = choice[j]
		}
		choice[j] = choice[j][:nMod+1]
	}

	// Row 1: a single group [0, e) — no scan, the only start is 0.
	for e := 1; e <= nMod; e++ {
		d := p[e] - p[0]
		cur[e] = d * d
		choice[1][e] = 0
	}
	prev, cur = cur, prev

	for j := 2; j <= nmax; j++ {
		// Group j covers [s, e) with s ≥ j−1 and e ≥ j; every prev[s]
		// in that band is finite, so no feasibility checks are needed
		// inside the scans.
		up, row := choice[j-1], choice[j]
		hiNext := nMod - 1 // choice[j][e+1]; for e = nMod only e−1 bounds
		for e := nMod; e >= j; e-- {
			lo := max(int(up[e]), j-1)
			hi := min(e-1, hiNext)
			if lo > hi {
				// Unreachable while the monotonicity holds; price the
				// lower bound alone so the entry stays in range.
				hi = lo
			}
			pe := p[e]
			d := pe - p[lo]
			best, bestS := prev[lo]+d*d, lo
			for s := lo + 1; s <= hi; s++ {
				d := pe - p[s]
				if c := prev[s] + d*d; c < best {
					best, bestS = c, s
				}
			}
			cur[e] = best
			row[e] = int32(bestS)
			hiNext = bestS
		}
		prev, cur = cur, prev
	}
	return nil
}

// reconstructInto walks the choice table of the last tableInto build
// backwards from the full module count, writing the n = len(starts)
// group starts into starts. Requires n ≤ the nmax of that build; rows
// never depend on nmax, so the starts equal a dedicated n-row build's.
func (dp *dpBuffers) reconstructInto(starts []int) error {
	n := len(starts)
	if n < 1 || n > dp.rows {
		return fmt.Errorf("core: reconstructing %d groups from a %d-row DP table", n, dp.rows)
	}
	starts[0] = 0
	e := dp.nMod
	for j := n; j >= 2; j-- {
		s := int(dp.choice[j][e])
		if s < j-1 || s >= e {
			return fmt.Errorf("core: DP reconstruction failed at group %d", j)
		}
		starts[j-1] = s
		e = s
	}
	return nil
}

// partitionDeviation returns Σ (groupSum − total/n)² for a partition —
// the balance objective, used by tests to verify DP optimality and by
// the scaling study.
func partitionDeviation(impp []float64, starts []int) float64 {
	p := prefixSums(impp)
	n := len(starts)
	iIdeal := p[len(impp)] / float64(n)
	sum := 0.0
	for j := 0; j < n; j++ {
		lo := starts[j]
		hi := len(impp)
		if j+1 < n {
			hi = starts[j+1]
		}
		d := p[hi] - p[lo] - iIdeal
		sum += d * d
	}
	return sum
}
