package core

import "tegrecon/internal/array"

// Allocating referees over the partition kernels and the module table.
// The deciders run the Into forms on reused scratch; the tests call
// these instead.

// tableOf returns a freshly built module table of arr.
func tableOf(arr *array.Array) *array.Norton {
	nt := &array.Norton{}
	arr.NortonInto(nt)
	return nt
}

// prefixSums returns P with P[0]=0 and P[i] = Σ x[:i].
func prefixSums(x []float64) []float64 {
	return prefixSumsInto(nil, x)
}

// greedyPartition is greedyPartitionInto over fresh prefix sums and a
// fresh starts slice, validating the request first.
func greedyPartition(impp []float64, n int) ([]int, error) {
	if err := checkPartition(len(impp), n); err != nil {
		return nil, err
	}
	starts := make([]int, n)
	greedyPartitionInto(starts, prefixSums(impp))
	return starts, nil
}

// dpPartition is the exhaustive partition into n groups: a dedicated
// n-row tableInto build read off by reconstructInto.
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

// partitionDeviation returns Σ (groupSum − total/n)² for a partition —
// the balance objective the DP optimality checks compare.
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
