// Package stats provides the measurement substrate for the simulation
// platform: streaming mean/variance (Welford) with normal and Student-t
// confidence intervals, rate counters, and the (x, y) series the
// experiment harness emits figure data and capacity crossings from.
package stats

import (
	"fmt"
	"math"
)

// MeanVar accumulates a stream of observations and reports mean, variance
// and standard error using Welford's numerically stable update.
type MeanVar struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (m *MeanVar) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// Count returns the number of observations.
func (m *MeanVar) Count() uint64 { return m.n }

// Mean returns the sample mean (0 with no observations).
func (m *MeanVar) Mean() float64 { return m.mean }

// Min returns the smallest observation (0 with no observations).
func (m *MeanVar) Min() float64 { return m.min }

// Max returns the largest observation (0 with no observations).
func (m *MeanVar) Max() float64 { return m.max }

// Variance returns the unbiased sample variance.
func (m *MeanVar) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *MeanVar) StdDev() float64 { return math.Sqrt(m.Variance()) }

// StdErr returns the standard error of the mean.
func (m *MeanVar) StdErr() float64 {
	if m.n == 0 {
		return 0
	}
	return m.StdDev() / math.Sqrt(float64(m.n))
}

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval for the mean.
func (m *MeanVar) CI95() float64 { return 1.96 * m.StdErr() }

// TCI95 returns the half-width of a 95% Student-t confidence interval for
// the mean — the correct interval at small sample counts (e.g. a handful
// of simulation replications), where the normal approximation of CI95
// understates the uncertainty. It returns 0 with fewer than two
// observations, where no dispersion estimate exists.
func (m *MeanVar) TCI95() float64 {
	if m.n < 2 {
		return 0
	}
	return TCritical95(int(m.n)-1) * m.StdErr()
}

// tTable95 holds two-sided 95% Student-t critical values for 1–30 degrees
// of freedom (index df-1).
var tTable95 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom, converging to the normal 1.96 in the large-sample
// limit. df below 1 yields +Inf (no interval exists).
func TCritical95(df int) float64 {
	switch {
	case df < 1:
		return math.Inf(1)
	case df <= len(tTable95):
		return tTable95[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.96
	}
}

// Reset clears the accumulator.
func (m *MeanVar) Reset() { *m = MeanVar{} }

// String renders "mean ± ci95 (n=...)".
func (m *MeanVar) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", m.Mean(), m.CI95(), m.n)
}

// Counter is a simple monotone event counter with snapshot support so the
// measurement window can exclude warm-up transients.
type Counter struct {
	total    uint64
	snapshot uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.total++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.total += n }

// Total returns the all-time count.
func (c *Counter) Total() uint64 { return c.total }

// Mark records the current total as the start of the measurement window.
func (c *Counter) Mark() { c.snapshot = c.total }

// Since returns the count accumulated after the last Mark.
func (c *Counter) Since() uint64 { return c.total - c.snapshot }

// Ratio returns a/b as a float, and 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Series is a labelled sequence of (x, y) points plus an optional error bar,
// used by the experiment harness to emit figure data.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	Err   []float64
}

// Append adds a point.
func (s *Series) Append(x, y, err float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.Err = append(s.Err, err)
}

// CrossingX returns the interpolated x at which the series first crosses the
// threshold level from below (or above, if descending is true). It returns
// NaN if the series never crosses. This computes "capacity at the 1% packet
// dropping threshold" style summaries from figure data.
func (s *Series) CrossingX(level float64, descending bool) float64 {
	for i := 1; i < len(s.X); i++ {
		y0, y1 := s.Y[i-1], s.Y[i]
		var crossed bool
		if descending {
			crossed = y0 >= level && y1 < level
		} else {
			crossed = y0 <= level && y1 > level
		}
		if crossed {
			if y1 == y0 {
				return s.X[i]
			}
			t := (level - y0) / (y1 - y0)
			return s.X[i-1] + t*(s.X[i]-s.X[i-1])
		}
	}
	return math.NaN()
}
