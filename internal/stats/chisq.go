package stats

import (
	"fmt"
	"math"
)

// The chi-squared machinery below supports the parametric G-test the paper
// uses when sample sizes are large enough (Sec 6, "Hybrid independent
// test"): the statistic G = 2·n·Î(X;Y|Z) is asymptotically χ² with
// df = (|Π_X|−1)(|Π_Y|−1)·|Π_Z| degrees of freedom.

// ChiSquareSurvival returns P(χ²_df ≥ x), the p-value of a chi-squared test
// with statistic x and df degrees of freedom.
func ChiSquareSurvival(x float64, df float64) (float64, error) {
	if df <= 0 {
		return 0, fmt.Errorf("stats: chi-square with df = %v", df)
	}
	if x <= 0 {
		return 1, nil
	}
	return regIncGammaQ(df/2, x/2)
}

// GTestPValue returns the G-test p-value for an estimated (conditional)
// mutual information mi measured on n samples with the given degrees of
// freedom. A negative mi (possible under Miller-Madow) is clamped to zero.
func GTestPValue(mi float64, n int, df int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("stats: G-test on %d samples", n)
	}
	if df <= 0 {
		// A degenerate table (some attribute is constant) carries no
		// evidence of dependence.
		return 1, nil
	}
	g := 2 * float64(n) * mi
	if g < 0 {
		g = 0
	}
	return ChiSquareSurvival(g, float64(df))
}

const (
	// gammaMaxIter must accommodate large shape parameters: the series for
	// P(a,x) with x ≈ a (huge-df chi-squared tests on high-cardinality
	// attributes) needs O(√a) terms to converge.
	gammaMaxIter = 100000
	gammaEps     = 3e-14
	gammaFPMin   = 1e-300
)

// regIncGammaQ computes the regularized upper incomplete gamma Q(a,x)=1−P(a,x).
func regIncGammaQ(a, x float64) (float64, error) {
	if x < 0 || a <= 0 {
		return 0, fmt.Errorf("stats: incomplete gamma with a=%v x=%v", a, x)
	}
	if x == 0 {
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaSeries(a, x)
		if err != nil {
			return 0, err
		}
		return 1 - p, nil
	}
	return gammaContinuedFraction(a, x)
}

// gammaSeries evaluates P(a,x) by its series representation (x < a+1).
func gammaSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, fmt.Errorf("stats: gamma series failed to converge (a=%v, x=%v)", a, x)
}

// gammaContinuedFraction evaluates Q(a,x) by the Lentz continued fraction
// (x ≥ a+1).
func gammaContinuedFraction(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / gammaFPMin
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < gammaFPMin {
			d = gammaFPMin
		}
		c = b + an/c
		if math.Abs(c) < gammaFPMin {
			c = gammaFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, fmt.Errorf("stats: gamma continued fraction failed to converge (a=%v, x=%v)", a, x)
}

// BinomialCI returns the 95%% normal-approximation confidence half-width for
// an observed proportion p over m trials: 1.96·√(p(1−p)/m), as used on line
// 13 of Alg 2 for the permutation-test p-value.
func BinomialCI(p float64, m int) float64 {
	if m <= 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return 1.96 * math.Sqrt(p*(1-p)/float64(m))
}

// MeanVariance returns the sample mean and (population) variance of xs.
func MeanVariance(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return mean, variance
}

// LinearRegression fits y = a + b·x by least squares and returns the
// intercept a, slope b, and the coefficient of determination R². It is used
// by the key-attribute detector, which regresses sample entropy on
// log(sample size) (Sec 4). At least two distinct x values are required.
func LinearRegression(x, y []float64) (a, b, r2 float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0, fmt.Errorf("stats: regression needs ≥2 paired points, got %d/%d", len(x), len(y))
	}
	mx, vx := MeanVariance(x)
	my, _ := MeanVariance(y)
	if vx == 0 {
		return 0, 0, 0, fmt.Errorf("stats: regression with constant x")
	}
	cov := 0.0
	for i := range x {
		cov += (x[i] - mx) * (y[i] - my)
	}
	cov /= float64(len(x))
	b = cov / vx
	a = my - b*mx
	ssRes, ssTot := 0.0, 0.0
	for i := range x {
		fit := a + b*x[i]
		ssRes += (y[i] - fit) * (y[i] - fit)
		ssTot += (y[i] - my) * (y[i] - my)
	}
	if ssTot == 0 {
		// y constant: a perfect (if trivial) fit.
		return a, b, 1, nil
	}
	return a, b, 1 - ssRes/ssTot, nil
}
