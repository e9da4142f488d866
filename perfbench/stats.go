package main

import (
	"math"
	"sort"
	"time"
)

// Dist is a sample population of one measured quantity. Percentiles are
// exact (nearest rank over the sorted samples), never estimated.
type Dist struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (d *Dist) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// AddDur records a duration in microseconds.
func (d *Dist) AddDur(v time.Duration) { d.Add(float64(v) / float64(time.Microsecond)) }

// Merge appends every sample of o.
func (d *Dist) Merge(o *Dist) {
	d.samples = append(d.samples, o.samples...)
	d.sorted = false
}

// N is the sample count.
func (d *Dist) N() int { return len(d.samples) }

// Quantile returns the nearest-rank q-quantile, q in [0,1]: the smallest
// sample with at least q·N samples at or below it. An empty population
// gives 0.
func (d *Dist) Quantile(q float64) float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.samples[rank-1]
}

// Beyond reports how many samples lie strictly above the q-quantile —
// the support a tail percentile has.
func (d *Dist) Beyond(q float64) int {
	v := d.Quantile(q)
	i := sort.Search(len(d.samples), func(i int) bool { return d.samples[i] > v })
	return len(d.samples) - i
}

// Mean is the arithmetic mean; an empty population gives 0.
func (d *Dist) Mean() float64 {
	sum := 0.0
	for _, v := range d.samples {
		sum += v
	}
	return ratio(sum, float64(len(d.samples)))
}

// Median is Quantile(0.5).
func (d *Dist) Median() float64 { return d.Quantile(0.5) }

// ratio divides, giving 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
