package render

import (
	"math"
	"math/rand"
	"testing"
)

// patternSin is the surface pattern as it was written before ISSUE 22: the
// oracle patternPositive must agree with on every argument.
func patternSin(a, b, c float64) bool {
	return math.Sin(a)*math.Sin(b)*math.Sin(c) > 0
}

func TestPatternSignMatchesSin(t *testing.T) {
	check := func(a, b, c float64) {
		t.Helper()
		if got, want := patternPositive(a, b, c), patternSin(a, b, c); got != want {
			t.Fatalf("patternPositive(%v, %v, %v) = %v, three sines say %v", a, b, c, got, want)
		}
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 1_000_000; i++ {
		check((rng.Float64()*2-1)*1e3, (rng.Float64()*2-1)*1e3, (rng.Float64()*2-1)*1e3)
	}

	// Adversarial arguments: around the multiples of pi, where the sign
	// flips, at every offset from far below the guard band to above it;
	// zeros, the |x| limit and beyond, and the non-finite values.
	adv := []float64{
		0, math.Copysign(0, -1), 1e6, -1e6, math.Nextafter(1e6, 0), -math.Nextafter(1e6, 0),
		1e6 + 1, 1e7, -1e9, 1e300, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i := 0; i < 4000; i++ {
		k := float64(rng.Intn(200_001) - 100_000)
		if i < 64 {
			k = float64(i - 32)
		}
		off := math.Pow(10, -12+7*rng.Float64()) // 1e-12 … 1e-5
		adv = append(adv, k*math.Pi+off, k*math.Pi-off, k*math.Pi)
	}
	plain := []float64{0.7, -2.3, 4.1} // sines +, -, -
	for _, x := range adv {
		for _, y := range plain {
			check(x, y, 1.1)
			check(y, x, -1.1)
			check(1.1, y, x)
		}
		check(x, x, x)
		check(x, adv[rng.Intn(len(adv))], adv[rng.Intn(len(adv))])
	}
}
