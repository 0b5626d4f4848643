package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPrefixSums(t *testing.T) {
	p := prefixSums([]float64{1, 2, 3})
	want := []float64{0, 1, 3, 6}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("p[%d] = %v, want %v", i, p[i], want[i])
		}
	}
	if got := prefixSums(nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("empty prefix sums = %v", got)
	}
}

func validStarts(t *testing.T, starts []int, n, nMod int) {
	t.Helper()
	if len(starts) != n {
		t.Fatalf("%d starts for %d groups", len(starts), n)
	}
	if starts[0] != 0 {
		t.Fatalf("first start %d", starts[0])
	}
	for j := 1; j < n; j++ {
		if starts[j] <= starts[j-1] || starts[j] >= nMod {
			t.Fatalf("invalid starts %v", starts)
		}
	}
}

func TestGreedyPartitionBasics(t *testing.T) {
	impp := []float64{4, 4, 4, 4, 4, 4}
	starts, err := greedyPartition(impp, 3)
	if err != nil {
		t.Fatal(err)
	}
	validStarts(t, starts, 3, 6)
	// Uniform currents → uniform groups of 2.
	want := []int{0, 2, 4}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
}

func TestGreedyPartitionSingleGroup(t *testing.T) {
	starts, err := greedyPartition([]float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 1 || starts[0] != 0 {
		t.Errorf("starts = %v", starts)
	}
}

func TestGreedyPartitionEachModuleOwnGroup(t *testing.T) {
	impp := []float64{5, 1, 3}
	starts, err := greedyPartition(impp, 3)
	if err != nil {
		t.Fatal(err)
	}
	validStarts(t, starts, 3, 3)
}

func TestGreedyPartitionErrors(t *testing.T) {
	if _, err := greedyPartition([]float64{1, 2}, 3); err == nil {
		t.Error("more groups than modules should error")
	}
	if _, err := greedyPartition([]float64{1, 2}, 0); err == nil {
		t.Error("zero groups should error")
	}
}

func TestGreedyPartitionDecayProfile(t *testing.T) {
	// Exponentially decaying currents — the radiator case. Front groups
	// must be smaller (fewer hot modules reach the target sum).
	impp := make([]float64, 100)
	for i := range impp {
		impp[i] = 1.5 * math.Exp(-float64(i)/30)
	}
	starts, err := greedyPartition(impp, 8)
	if err != nil {
		t.Fatal(err)
	}
	validStarts(t, starts, 8, 100)
	firstSize := starts[1] - starts[0]
	lastSize := 100 - starts[7]
	if firstSize >= lastSize {
		t.Errorf("front group %d not smaller than back group %d", firstSize, lastSize)
	}
}

func TestDPPartitionOptimalVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		nMod := 4 + rng.Intn(8) // small enough to brute force
		n := 2 + rng.Intn(3)
		if n > nMod {
			n = nMod
		}
		impp := make([]float64, nMod)
		for i := range impp {
			impp[i] = 0.2 + rng.Float64()*2
		}
		starts, err := dpPartition(impp, n)
		if err != nil {
			t.Fatal(err)
		}
		validStarts(t, starts, n, nMod)
		got := partitionDeviation(impp, starts)

		// Brute force: enumerate all boundary combinations.
		best := math.Inf(1)
		var enumerate func(pos, group int, acc []int)
		enumerate = func(pos, group int, acc []int) {
			if group == n {
				if d := partitionDeviation(impp, acc); d < best {
					best = d
				}
				return
			}
			for next := pos + 1; next <= nMod-(n-group-1); next++ {
				enumerate(next, group+1, append(acc, next))
			}
		}
		enumerate(0, 1, []int{0})
		if got > best+1e-9 {
			t.Fatalf("trial %d: DP deviation %v worse than brute force %v (starts %v)", trial, got, best, starts)
		}
	}
}

func TestDPNeverWorseThanGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nMod := 5 + rng.Intn(60)
		n := 2 + rng.Intn(8)
		if n > nMod {
			n = nMod
		}
		impp := make([]float64, nMod)
		for i := range impp {
			impp[i] = 0.1 + rng.Float64()*3
		}
		gs, err1 := greedyPartition(impp, n)
		ds, err2 := dpPartition(impp, n)
		if err1 != nil || err2 != nil {
			return false
		}
		return partitionDeviation(impp, ds) <= partitionDeviation(impp, gs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDPPartitionErrors(t *testing.T) {
	if _, err := dpPartition([]float64{1}, 2); err == nil {
		t.Error("more groups than modules should error")
	}
	if _, err := dpPartition([]float64{1, 2}, 0); err == nil {
		t.Error("zero groups should error")
	}
}

func TestPartitionDeviationZeroForPerfectBalance(t *testing.T) {
	impp := []float64{2, 2, 2, 2}
	if d := partitionDeviation(impp, []int{0, 2}); d > 1e-12 {
		t.Errorf("deviation %v for perfectly balanced split", d)
	}
}

// partitionTableNaive is the shared DP table filled by full quadratic
// row scans — the reference the row-bounded tableInto must match bit
// for bit, starts and all (docs/ARCHITECTURE.md determinism clause 4).
func partitionTableNaive(starts []int, p []float64) error {
	choice, _ := naiveChoiceTable(p, len(starts))
	return reconstructNaive(starts, choice, len(p)-1)
}

// naiveChoiceTable fills the choice rows 1..nmax of the shared DP table
// by full quadratic row scans: every start s ∈ [j−1, e−1], ascending,
// strict `<`. It also tallies the cost evaluations it makes — the work
// fullScanDPWork charges EHTR for.
func naiveChoiceTable(p []float64, nmax int) (choice [][]int32, evals int64) {
	nMod := len(p) - 1
	prev := make([]float64, nMod+1)
	cur := make([]float64, nMod+1)
	choice = make([][]int32, nmax+1)
	for j := range choice {
		choice[j] = make([]int32, nMod+1)
	}
	for e := 1; e <= nMod; e++ {
		d := p[e] - p[0]
		cur[e] = d * d
		choice[1][e] = 0
		evals++
	}
	prev, cur = cur, prev
	for j := 2; j <= nmax; j++ {
		for e := j; e <= nMod; e++ {
			d := p[e] - p[j-1]
			best, bestS := prev[j-1]+d*d, j-1
			evals++
			for s := j; s < e; s++ {
				d := p[e] - p[s]
				if c := prev[s] + d*d; c < best {
					best, bestS = c, s
				}
				evals++
			}
			cur[e] = best
			choice[j][e] = int32(bestS)
		}
		prev, cur = cur, prev
	}
	return choice, evals
}

// reconstructNaive walks a naiveChoiceTable back from nMod.
func reconstructNaive(starts []int, choice [][]int32, nMod int) error {
	n := len(starts)
	starts[0] = 0
	e := nMod
	for j := n; j >= 2; j-- {
		s := int(choice[j][e])
		if s < j-1 || s >= e {
			return fmt.Errorf("naive reconstruction failed at group %d", j)
		}
		starts[j-1] = s
		e = s
	}
	return nil
}

// partitionIntoNaive is the PR-5-era exhaustive DP: one quadratic table
// per group count over the cost Σ (groupSum − Iideal)². Kept verbatim as
// the objective reference — the shared-table DP minimises Σ groupSum²,
// which differs from this cost by the partition-independent constant
// 2·Iideal·total − n·Iideal², so both must land on partitions of equal
// deviation (TestDPTableMatchesIdealObjective). Tie-breaks between
// equal-deviation partitions may differ: the two costs round differently
// in floating point, which is why the shared table carries its own
// bit-identity reference above rather than this one.
func partitionIntoNaive(starts []int, p []float64) error {
	n := len(starts)
	nMod := len(p) - 1
	starts[0] = 0
	if n == 1 {
		return nil
	}
	iIdeal := p[nMod] / float64(n)
	const inf = 1e300
	prev := make([]float64, nMod+1)
	cur := make([]float64, nMod+1)
	choice := make([][]int32, n+1)
	for j := range choice {
		choice[j] = make([]int32, nMod+1)
	}
	for e := 0; e <= nMod; e++ {
		prev[e] = inf
	}
	prev[0] = 0
	dev := func(s, e int) float64 {
		d := p[e] - p[s] - iIdeal
		return d * d
	}
	for j := 1; j <= n; j++ {
		for e := 0; e <= nMod; e++ {
			cur[e] = inf
		}
		for e := j; e <= nMod-(n-j); e++ {
			best, bestS := inf, -1
			for s := j - 1; s < e; s++ {
				if prev[s] >= inf {
					continue
				}
				if c := prev[s] + dev(s, e); c < best {
					best, bestS = c, s
				}
			}
			cur[e] = best
			choice[j][e] = int32(bestS)
		}
		prev, cur = cur, prev
	}
	e := nMod
	for j := n; j >= 2; j-- {
		s := int(choice[j][e])
		if s < 0 {
			return fmt.Errorf("core: DP reconstruction failed at group %d", j)
		}
		starts[j-1] = s
		e = s
	}
	return nil
}

// TestDPTableMatchesNaive pins the shared-table DP (divide-and-conquer
// rows, then Knuth-bounded rows) to the quadratic reference: identical
// starts — not merely equal deviations — on random profiles, the
// radiator's decay profile at live array sizes, and tie-heavy inputs
// (flat, zero-padded, duplicated currents) where the leftmost-argmin
// tie-break is what distinguishes equal-cost partitions. The tables at
// N ≥ 100 are compared entry by entry, so every row dcRows hands to
// divide and conquer is checked, not only the entries a walk reads.
func TestDPTableMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var dp dpBuffers // one reused buffer set, like the EHTR decider
	check := func(name string, impp []float64, n int) {
		t.Helper()
		p := prefixSums(impp)
		want := make([]int, n)
		if err := partitionTableNaive(want, p); err != nil {
			t.Fatalf("%s: naive: %v", name, err)
		}
		got := make([]int, n)
		if err := dp.tableInto(p, n); err != nil {
			t.Fatalf("%s: knuth: %v", name, err)
		}
		if err := dp.reconstructInto(got); err != nil {
			t.Fatalf("%s: knuth: %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (nMod=%d n=%d): starts diverge at %d: knuth %v, naive %v",
					name, len(impp), n, i, got, want)
			}
		}
	}

	// checkTable builds one nmax-row table and compares its whole choice
	// table with the reference entry by entry, then reconstructs every
	// n ≤ nmax from both (rows never depend on nmax).
	checkTable := func(name string, impp []float64, nmax int) {
		t.Helper()
		nMod := len(impp)
		p := prefixSums(impp)
		ref, _ := naiveChoiceTable(p, nmax)
		if err := dp.tableInto(p, nmax); err != nil {
			t.Fatal(err)
		}
		for j := 2; j <= nmax; j++ {
			for e := j; e <= nMod; e++ {
				if dp.choice[j][e] != ref[j][e] {
					t.Fatalf("%s N=%d: choice[%d][%d] = %d, naive %d (rows 2–%d divide and conquer)",
						name, nMod, j, e, dp.choice[j][e], ref[j][e], dcRows(nMod))
				}
			}
		}
		for n := 1; n <= nmax; n++ {
			got, want := make([]int, n), make([]int, n)
			if err := dp.reconstructInto(got); err != nil {
				t.Fatal(err)
			}
			if err := reconstructNaive(want, ref, nMod); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s N=%d n=%d: table %v, naive %v", name, nMod, n, got, want)
				}
			}
		}
	}

	// Tie-heavy structured profiles: every cost comparison that can tie
	// does, so only matching tie-breaks keep the starts identical.
	for _, nMod := range []int{1, 2, 3, 7, 20, 50} {
		flat := make([]float64, nMod)
		zeros := make([]float64, nMod)
		blocks := make([]float64, nMod)
		for i := range flat {
			flat[i] = 1.25
			blocks[i] = float64(1 + i/5)
		}
		for n := 1; n <= nMod; n++ {
			check("flat", flat, n)
			check("zeros", zeros, n)
			check("blocks", blocks, n)
		}
	}

	// The radiator case: exponential decay plus noise, full group range.
	decay := make([]float64, 100)
	for i := range decay {
		decay[i] = 1.5*math.Exp(-float64(i)/25) + 0.05*rng.Float64()
	}
	for n := 1; n <= 40; n++ {
		check("decay", decay, n)
	}

	// Live array sizes: radiator decay plus noise at N = 100 and 500,
	// tables up to the 160 rows the N=500 windows reach, with runs of
	// zero currents (failed modules) and of exactly equal currents. One
	// table per profile serves every group count (rows never depend on
	// nmax), so the whole choice table is compared entry by entry and
	// then every n ≤ nmax is reconstructed from both.
	for _, nMod := range []int{100, 500} {
		for trial := 0; trial < 3; trial++ {
			impp := make([]float64, nMod)
			for i := range impp {
				impp[i] = 1.5*math.Exp(-3*float64(i)/float64(nMod)) + 0.05*rng.Float64()
			}
			if trial > 0 {
				// A run of failed modules and a run of exact ties.
				z := rng.Intn(nMod - 10)
				for i := z; i < z+1+rng.Intn(10); i++ {
					impp[i] = 0
				}
				q := rng.Intn(nMod - 20)
				for i := q; i < q+1+rng.Intn(20); i++ {
					impp[i] = 0.75
				}
			}
			checkTable(fmt.Sprintf("decay trial %d", trial), impp, min(160, nMod))
		}
	}

	// Random fuzz, including runs of exactly-equal and zero currents.
	for trial := 0; trial < 400; trial++ {
		nMod := 1 + rng.Intn(64)
		impp := make([]float64, nMod)
		for i := range impp {
			switch rng.Intn(4) {
			case 0:
				impp[i] = 0
			case 1:
				impp[i] = 0.75 // repeated exact value → exact cost ties
			default:
				impp[i] = rng.Float64() * 3
			}
		}
		n := 1 + rng.Intn(nMod)
		check("fuzz", impp, n)
	}

	// The tie-heavy profiles at the twin array size, where rows 2–5 are
	// solved by divide and conquer, with the 160 rows its windows reach.
	const nTie = 500
	flat, zeros, blocks := make([]float64, nTie), make([]float64, nTie), make([]float64, nTie)
	for i := range flat {
		flat[i] = 1.25
		blocks[i] = float64(1 + i/5)
	}
	checkTable("flat", flat, 160)
	checkTable("zeros", zeros, 160)
	checkTable("blocks", blocks, 160)

	// A decay profile at N = 1000, where the rule takes rows 2–7.
	decay1000 := make([]float64, 1000)
	for i := range decay1000 {
		decay1000[i] = 1.5*math.Exp(-3*float64(i)/1000) + 0.05*rng.Float64()
	}
	checkTable("decay", decay1000, 100)
}

// TestDCRows pins the row split tableInto documents: divide and
// conquer while 2·⌈log₂N⌉·j·(j−1) < N.
func TestDCRows(t *testing.T) {
	for _, c := range []struct{ nMod, want int }{
		{1, 1}, {2, 1}, {20, 1}, {21, 2}, {100, 3}, {500, 5}, {1000, 7},
	} {
		if got := dcRows(c.nMod); got != c.want {
			t.Errorf("dcRows(%d) = %d, want %d", c.nMod, got, c.want)
		}
	}
}

// TestDPTableSharedAcrossGroupCounts is the property configureAt leans
// on: one table built to the window's largest group count yields, for
// every smaller n, exactly the starts a dedicated n-row build yields.
func TestDPTableSharedAcrossGroupCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nMod := 2 + rng.Intn(80)
		impp := make([]float64, nMod)
		for i := range impp {
			if rng.Intn(3) == 0 {
				impp[i] = 1.0 // exact repeats → cost ties
			} else {
				impp[i] = rng.Float64() * 2
			}
		}
		p := prefixSums(impp)
		nmax := 1 + rng.Intn(nMod)
		var shared dpBuffers
		if err := shared.tableInto(p, nmax); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= nmax; n++ {
			got := make([]int, n)
			if err := shared.reconstructInto(got); err != nil {
				t.Fatalf("trial %d n=%d: %v", trial, n, err)
			}
			var fresh dpBuffers
			want := make([]int, n)
			if err := fresh.tableInto(p, n); err != nil {
				t.Fatal(err)
			}
			if err := fresh.reconstructInto(want); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (nMod=%d nmax=%d n=%d): shared %v, dedicated %v",
						trial, nMod, nmax, n, got, want)
				}
			}
		}
	}
}

// TestDPTableMatchesIdealObjective checks the algebra that lets the
// shared table drop Iideal from the cost: Σ (g − Iideal)² and Σ g² are
// offset by a partition-independent constant, so the two DPs must find
// partitions of equal deviation (though possibly different tie-breaks).
func TestDPTableMatchesIdealObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		nMod := 1 + rng.Intn(60)
		impp := make([]float64, nMod)
		for i := range impp {
			impp[i] = rng.Float64() * 3
		}
		n := 1 + rng.Intn(nMod)
		p := prefixSums(impp)
		ideal := make([]int, n)
		if err := partitionIntoNaive(ideal, p); err != nil {
			t.Fatal(err)
		}
		shared := make([]int, n)
		var dp dpBuffers
		if err := dp.tableInto(p, n); err != nil {
			t.Fatal(err)
		}
		if err := dp.reconstructInto(shared); err != nil {
			t.Fatal(err)
		}
		dIdeal := partitionDeviation(impp, ideal)
		dShared := partitionDeviation(impp, shared)
		if math.Abs(dIdeal-dShared) > 1e-9*(1+dIdeal) {
			t.Fatalf("trial %d (nMod=%d n=%d): deviations diverge: ideal-cost DP %v (%v), shared-table DP %v (%v)",
				trial, nMod, n, dIdeal, ideal, dShared, shared)
		}
	}
}

func TestGreedyPartitionNearBalanced(t *testing.T) {
	// The greedy deviation should be within a small factor of DP on
	// realistic profiles — that is the O(N) vs O(N³) trade the paper
	// exploits.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		impp := make([]float64, 100)
		for i := range impp {
			impp[i] = 1.5*math.Exp(-float64(i)/25) + 0.1 + 0.05*rng.Float64()
		}
		n := 6 + rng.Intn(8)
		gs, err := greedyPartition(impp, n)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := dpPartition(impp, n)
		if err != nil {
			t.Fatal(err)
		}
		gDev, dDev := partitionDeviation(impp, gs), partitionDeviation(impp, ds)
		// Greedy must stay within a generous factor of optimal plus a
		// small absolute allowance (module granularity).
		if gDev > dDev*8+0.05 {
			t.Fatalf("trial %d n=%d: greedy %v far from optimal %v", trial, n, gDev, dDev)
		}
	}
}

// greedyPartitionSearchRef is the greedy boundary walk with each end
// found by sort.SearchFloat64s over the boundary's whole range — the
// search greedyPartitionInto's galloping walk replaced, kept as its
// referee.
func greedyPartitionSearchRef(starts []int, p []float64) {
	n := len(starts)
	nMod := len(p) - 1
	starts[0] = 0
	if n == 1 {
		return
	}
	iIdeal := p[nMod] / float64(n)
	start := 0
	for j := 1; j < n; j++ {
		loEnd := start + 1
		hiEnd := nMod - (n - j)
		target := p[start] + iIdeal
		e := sort.SearchFloat64s(p[loEnd:hiEnd+1], target) + loEnd
		if e > hiEnd {
			e = hiEnd
		}
		if e > loEnd {
			if target-p[e-1] <= p[e]-target {
				e--
			}
		}
		starts[j] = e
		start = e
	}
}

// TestGreedyWalkMatchesSearchReference pins the galloping boundary walk
// to the binary-search walk it replaced: identical starts for every
// group count on random non-decreasing prefixes, small-integer currents
// whose targets tie prefix entries exactly, uniform currents, runs of
// zero currents (failed modules) and radiator decay profiles, for
// N = 1…64, 100 and 500.
func TestGreedyWalkMatchesSearchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	profiles := []struct {
		name string
		draw func(i, nMod int) float64
	}{
		{"random", func(int, int) float64 { return 3 * rng.Float64() }},
		{"ties", func(int, int) float64 { return float64(rng.Intn(3)) }},
		{"uniform", func(int, int) float64 { return 0.75 }},
		{"zero runs", func(i, nMod int) float64 {
			if (i/4)%3 == 1 {
				return 0
			}
			return 0.1 + rng.Float64()
		}},
		{"decay", func(i, nMod int) float64 {
			return 1.5*math.Exp(-float64(i)/(0.2*float64(nMod))) + 0.05*rng.Float64()
		}},
		{"all zero", func(int, int) float64 { return 0 }},
	}
	sizes := []int{100, 500}
	for nMod := 1; nMod <= 64; nMod++ {
		sizes = append(sizes, nMod)
	}
	compared := 0
	for _, nMod := range sizes {
		for _, prof := range profiles {
			impp := make([]float64, nMod)
			for i := range impp {
				impp[i] = prof.draw(i, nMod)
			}
			p := prefixSums(impp)
			for n := 1; n <= nMod; n++ {
				got, want := make([]int, n), make([]int, n)
				greedyPartitionInto(got, p)
				greedyPartitionSearchRef(want, p)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s N=%d n=%d: starts %v, reference %v", prof.name, nMod, n, got, want)
					}
				}
				compared++
			}
		}
	}
	t.Logf("%d partitions compared", compared)
}

// FuzzGreedyPartition pins the walking boundary search to the
// binary-search reference on arbitrary non-decreasing prefixes, for
// every group count. Each input byte is one module's MPP current:
// bytes below 64 are zero-current modules (plateaus in the prefix),
// the rest small multiples of 1/7, so sums tie and round. Bytes past
// the first 512 are ignored. The seeds include a plateau tail, which
// clamps the expected end of the later groups at hiEnd, and a long
// dark head, whose first boundaries lie far from their expected ends.
func FuzzGreedyPartition(f *testing.F) {
	f.Add([]byte{200, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 70, 70, 70})
	f.Add([]byte{100, 100, 100, 100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 100})
	f.Add([]byte("radiator decay profiles taper toward the outlet"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		impp := make([]float64, len(data))
		for i, b := range data {
			if b >= 64 {
				impp[i] = float64(b-63) / 7
			}
		}
		if len(impp) == 0 {
			return
		}
		p := prefixSums(impp)
		got, want := make([]int, len(impp)), make([]int, len(impp))
		for n := 1; n <= len(impp); n++ {
			greedyPartitionInto(got[:n], p)
			greedyPartitionSearchRef(want[:n], p)
			for j := 0; j < n; j++ {
				if got[j] != want[j] {
					t.Fatalf("n=%d: starts %v, reference %v (prefix %v)", n, got[:n], want[:n], p)
				}
			}
		}
	})
}

// TestGallopAtLeastMatchesSearch checks the search itself from every
// guess, in range and out of it, on a prefix with repeated entries.
func TestGallopAtLeastMatchesSearch(t *testing.T) {
	p := []float64{0, 0, 1, 1, 1, 2, 4, 4, 7, 7, 7, 7, 9}
	for lo := 0; lo <= len(p); lo++ {
		for hi := lo; hi <= len(p); hi++ {
			for _, target := range []float64{-1, 0, 0.5, 1, 3, 4, 7, 8, 9, 10, math.NaN()} {
				want := sort.SearchFloat64s(p[lo:hi], target) + lo
				for guess := lo - 3; guess <= hi+3; guess++ {
					if got := gallopAtLeast(p, lo, hi, guess, target); got != want {
						t.Fatalf("gallopAtLeast(p, %d, %d, guess %d, %v) = %d, want %d", lo, hi, guess, target, got, want)
					}
				}
			}
		}
	}
}
