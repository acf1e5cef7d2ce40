// Package mathx collects the small numerical routines shared by the coding,
// capacity and constellation packages: the Gaussian tail function Q and its
// inverse, the binary entropy function, and dB conversions.
package mathx

import "math"

// Q returns the Gaussian tail probability Q(x) = P(N(0,1) > x).
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// NormalCDF returns the standard normal cumulative distribution function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the inverse of the standard normal CDF, i.e. the
// value z such that NormalCDF(z) = p. It uses the Acklam rational
// approximation refined with one step of Halley's method, which is accurate
// to well below 1e-9 over (0, 1).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}

	// Coefficients for the Acklam approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// QInv returns the inverse of the Gaussian tail function: the value x such
// that Q(x) = p.
func QInv(p float64) float64 {
	return -NormalQuantile(p)
}

// BinaryEntropy returns H2(p) = -p log2 p - (1-p) log2 (1-p), in bits, with
// the conventional limits H2(0) = H2(1) = 0.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// DBToLinear converts a decibel power ratio to a linear ratio.
func DBToLinear(db float64) float64 {
	return math.Pow(10, db/10)
}

// LinearToDB converts a linear power ratio to decibels.
func LinearToDB(lin float64) float64 {
	return 10 * math.Log10(lin)
}

// IsFinite reports whether x is neither NaN nor infinite.
func IsFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Clamp limits x to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	}
	return x
}

// Log2Int returns floor(log2(n)) for n >= 1.
func Log2Int(n int) int {
	if n < 1 {
		panic("mathx: Log2Int of non-positive value")
	}
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
