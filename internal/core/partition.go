package core

import (
	"fmt"
	"math/bits"
)

// prefixSumsInto writes P with P[0]=0 and P[i] = Σ x[:i] into dst,
// reusing its backing storage when the capacity suffices. The
// group-count search reads the same prefix vector for every candidate
// n, so the deciders keep it in their scratch.
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

// greedyPartitionInto implements the inner loop of Algorithm 1: split
// the module chain into n consecutive groups so that each group's summed
// MPP current lands as close as possible to Iideal = total/n, scanning
// left to right and placing each boundary at the prefix point nearest
// the running target. Every group receives at least one module.
//
// It walks the already-computed prefix sums p (p[0]=0,
// len(p) = nMod+1) and writes the n = len(starts) group starts into
// starts. The caller has validated 1 ≤ n ≤ nMod; every entry of starts
// is overwritten, so the slice can be reused across candidates without
// clearing.
//
// Each boundary is the smallest end e in [loEnd, hiEnd] with
// p[e] ≥ target (clamped to hiEnd), moved to e−1 when that lands at
// least as close to the target. The end is found from the expected one
// — the previous group's length past the group start, nMod/n for the
// first group — by stepping one end at a time for up to walkSteps
// probes, which settles almost every boundary of a smooth profile, and
// only past that by galloping and binary-searching the rest of the
// range (gallopAtLeast). The predicate "e = hiEnd or p[e] ≥ target" is
// monotone in e because p is non-decreasing, so the end found does not
// depend on where the walk starts: it is the index a binary search
// over the whole range returns. p is non-decreasing for every decider
// input: teg.OpsFromTempsInto clamps ΔT to ≥ 0, failed modules
// contribute a zero MPP current, and groupWindow parks a non-finite
// distribution before any partition is built.
func greedyPartitionInto(starts []int, p []float64) {
	n := len(starts)
	nMod := len(p) - 1
	starts[0] = 0
	if n == 1 {
		return
	}
	iIdeal := p[nMod] / float64(n)
	start, length := 0, nMod/n
	for j := 1; j < n; j++ {
		// Boundary candidates for the end (exclusive) of group j-1:
		// must leave at least one module per remaining group.
		loEnd := start + 1
		hiEnd := nMod - (n - j)
		target := p[start] + iIdeal
		// Smallest end with cumulative sum ≥ target, hiEnd if none:
		// walk from the expected end, then gallop past walkSteps.
		e := min(max(start+length, loEnd), hiEnd)
		if e == hiEnd || p[e] >= target {
			stop := max(e-walkSteps, loEnd)
			for e > stop && p[e-1] >= target {
				e--
			}
			if e == stop && e > loEnd {
				e = gallopAtLeast(p, loEnd, e, e-1, target)
			}
		} else {
			stop := min(e+walkSteps, hiEnd)
			for e++; e < stop && !(p[e] >= target); e++ {
			}
			if e < hiEnd && !(p[e] >= target) {
				e = gallopAtLeast(p, e+1, hiEnd, e+1, target)
			}
		}
		// The closest of e and e−1 to the target.
		if e > loEnd {
			if target-p[e-1] <= p[e]-target {
				e--
			}
		}
		starts[j] = e
		length = e - start
		start = e
	}
}

// walkSteps is how many ends greedyPartitionInto steps through from a
// boundary's expected end before it gallops.
const walkSteps = 4

// gallopAtLeast returns the smallest e in [lo, hi) with p[e] ≥ target,
// or hi when there is none. It probes guess first, gallops away from it
// in doubling steps until the answer is bracketed, and binary-searches
// the bracket. p[lo:hi] must be non-decreasing (see greedyPartitionInto);
// the predicate is then monotone and the result does not depend on
// guess.
func gallopAtLeast(p []float64, lo, hi, guess int, target float64) int {
	if lo >= hi {
		return hi
	}
	// Invariant: the answer lies in (a, b]; p[a] < target unless
	// a = lo−1, and p[b] ≥ target unless b = hi.
	a, b := lo-1, hi
	g := min(max(guess, lo), hi-1)
	if p[g] >= target {
		b = g
		for d := 1; g-d > a; d *= 2 {
			if p[g-d] >= target {
				b = g - d
			} else {
				a = g - d
				break
			}
		}
	} else {
		a = g
		for d := 1; g+d < b; d *= 2 {
			if p[g+d] >= target {
				b = g + d
				break
			}
			a = g + d
		}
	}
	for b-a > 1 {
		m := int(uint(a+b) >> 1)
		if p[m] >= target {
			b = m
		} else {
			a = m
		}
	}
	return b
}

// dpBuffers holds the shared dynamic-programming table of the exhaustive
// partitioner used by the EHTR reconstruction: dynamic programming over
// all consecutive partitions minimising Σ (groupSum − Iideal)². Because
// the total Σ groupSum is the same for every partition, that objective
// equals Σ groupSum² − total²/n, so ranking partitions by Σ groupSum²
// gives the same optima — and that cost does not depend on the group
// count n. The DP therefore fills one shared table whose rows serve
// every candidate n (tableInto), and each group count is read off by a
// backward walk (reconstructInto). The EHTR decider builds the table
// once per control period (tableInto up to the largest candidate group
// count) and reconstructs each candidate from it, reusing these arrays
// so the steady-state decision path allocates nothing.
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
// The row cost prev[s] + (p[e]−p[s])² satisfies the quadrangle
// inequality (a convex function of the difference of two
// non-decreasing prefix sums), so the leftmost argmin — exactly what an
// ascending scan with a strict `<` keeps — is monotone in both indices:
// choice[j−1][e] ≤ choice[j][e] ≤ choice[j][e+1]. Two row solvers
// exploit that, and the row index picks between them:
//
//   - Knuth's window. Filling row j with e descending, entry e scans
//     only s ∈ [max(choice[j−1][e], j−1), min(e−1, choice[j][e+1])].
//     The window widths telescope along each diagonal e − j = const,
//     so the Knuth rows together cost O(N·(N+nmax)), but row j alone
//     costs about N²/(2j(j−1)) evaluations: its lower bounds come from
//     row j−1, and row 1's choices are all 0, so the first rows are
//     nearly full scans.
//   - Monotone divide and conquer (dcRowInto). It solves the midpoint
//     end of a range, then each half with the midpoint's choice as a
//     bound, for about N·log₂N evaluations per row whatever j is.
//
// Row j is solved by divide and conquer while
// 2·⌈log₂N⌉·j·(j−1) < N (dcRows), the crossover of the two estimates,
// and by Knuth's window after that; the rule takes rows 2–5 at
// N = 500 and rows 2–3 at N = 100. On a radiator decay-plus-noise
// profile at N = 500 with 160 rows, Knuth evaluates 37.6k / 19.5k /
// 12.5k / 9.0k costs on rows 2–5 and divide and conquer 4.5k / 4.3k /
// 4.1k / 3.9k, so the table drops from 255k to 194k evaluations. Past
// row ~10 Knuth is the cheaper, and divide and conquer on every row
// would cost 288k.
//
// Both solvers price, for each entry, a window that contains the
// leftmost argmin, in ascending s with the strict `<` of the full scan
// and the same floating-point sums, so choice and the row values are
// bit-identical to the quadratic reference (TestDPTableMatchesNaive is
// the referee). Nothing is allocated once the buffers have grown, and
// the recursion is O(log N) deep.
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

	lastDC := dcRows(nMod)
	for j := 2; j <= nmax; j++ {
		// Group j covers [s, e) with s ≥ j−1 and e ≥ j; every prev[s]
		// in that band is finite, so no feasibility checks are needed
		// inside the scans.
		up, row := choice[j-1], choice[j]
		if j <= lastDC {
			dcRowInto(p, prev, cur, up, row, j, j, nMod, j-1, nMod-1)
			prev, cur = cur, prev
			continue
		}
		hiNext := nMod - 1 // choice[j][e+1]; for e = nMod only e−1 bounds
		for e := nMod; e >= j; e-- {
			lo := max(int(up[e]), j-1)
			hi := max(min(e-1, hiNext), lo) // empty only if monotonicity broke
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

// dcRows returns the last DP row that tableInto solves by divide and
// conquer for nMod modules: the largest j with
// 2·⌈log₂N⌉·j·(j−1) < N, where a Knuth window's ~N²/(2j(j−1))
// evaluations still exceed divide and conquer's ~N·log₂N. It is 1 (no
// such row) below N = 21, 3 at N = 100, 5 at N = 500 and 7 at N = 1000.
func dcRows(nMod int) int {
	lg := bits.Len(uint(nMod - 1)) // ⌈log₂N⌉ for N ≥ 1
	j := 1
	for j < nMod && 2*lg*(j+1)*j < nMod { // j < nMod ends N = 1, where lg = 0
		j++
	}
	return j
}

// dcRowInto fills DP row j for the ends e ∈ [eLo, eHi] by monotone
// divide and conquer, given that each entry's leftmost argmin lies in
// [sLo, sHi]: it solves the midpoint end over
// s ∈ [max(sLo, choice[j−1][m], j−1), min(sHi, m−1)] with the scan of
// the Knuth rows, recurses into the left half with the midpoint's
// choice as the upper bound and loops on the right half with it as the
// lower bound, so the recursion is O(log N) deep. The scan is written
// out here and in tableInto: a shared helper over resliced windows,
// even inlined, made the whole table about 20% slower.
func dcRowInto(p, prev, cur []float64, up, row []int32, j, eLo, eHi, sLo, sHi int) {
	for eLo <= eHi {
		m := int(uint(eLo+eHi) >> 1)
		lo := max(sLo, int(up[m]), j-1)
		hi := max(min(sHi, m-1), lo) // empty only if monotonicity broke
		pm := p[m]
		d := pm - p[lo]
		best, bestS := prev[lo]+d*d, lo
		for s := lo + 1; s <= hi; s++ {
			d := pm - p[s]
			if c := prev[s] + d*d; c < best {
				best, bestS = c, s
			}
		}
		cur[m] = best
		row[m] = int32(bestS)
		dcRowInto(p, prev, cur, up, row, j, eLo, m-1, sLo, bestS)
		eLo, sLo = m+1, bestS
	}
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
