package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNearBEBudgetMatchesPaperEq1(t *testing.T) {
	p := Pixel2()
	// Eq. 1: RT_NearBE < 16.7ms - 4ms = 12.7ms. Our FI bound is 3.6ms, so
	// the budget must be at least the paper's conservative 12.7ms and
	// below the full vsync interval.
	b := p.VsyncMs - p.FIRenderMs
	if b < 12.7 || b >= p.VsyncMs {
		t.Fatalf("near-BE budget = %v ms, want in [12.7, 16.7)", b)
	}
	if p.FIRenderMs >= 4 {
		t.Fatalf("FI render bound %v ms must be 'well below 4 ms'", p.FIRenderMs)
	}
}

func TestRenderMsMonotone(t *testing.T) {
	p := Pixel2()
	f := func(a, b uint32) bool {
		x, y := int(a%10_000_000), int(b%10_000_000)
		if x > y {
			x, y = y, x
		}
		return p.RenderMs(x) <= p.RenderMs(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMobileBaselineOperatingPoint(t *testing.T) {
	// Table 1, Mobile rows: full local rendering of the three headline
	// games lands at 38-50 ms per frame (24-27 FPS). Our game scenes have
	// total triangle counts around 45-75M; whole-scene render time must
	// land in that band.
	p := Pixel2()
	for _, totalTris := range []int{55_000_000, 65_000_000, 72_000_000} {
		ms := p.FullSceneRenderMs(totalTris)
		if ms < 35 || ms > 55 {
			t.Errorf("FullSceneRenderMs(%d) = %.1f ms, want ~38-50", totalTris, ms)
		}
	}
}

func TestNearBEBudgetTriangleCapacity(t *testing.T) {
	// The cutoff search needs a meaningful triangle budget: the number of
	// triangles renderable within the 12.7ms window should be several
	// hundred thousand (so cutoff radii land in the paper's 2-30m range
	// for realistic densities).
	p := Pixel2()
	budget := p.VsyncMs - p.FIRenderMs // Eq. 1
	tris := int((budget - p.RenderBaseMs) * p.TriPerMs)
	if tris < 400_000 || tris > 1_500_000 {
		t.Fatalf("near-BE capacity = %d triangles, outside plausible range", tris)
	}
	if got := p.NearBERenderMs(tris); got > budget+1e-9 {
		t.Fatalf("budget capacity renders in %v ms > budget %v", got, budget)
	}
}

func TestDecodeMs(t *testing.T) {
	p := Pixel2()
	// A Multi-Furion whole-BE frame (~550 KB, Table 1) must decode well
	// within the 16.7ms frame interval on the hardware decoder.
	d := p.DecodeMs(550 * 1024)
	if d >= p.VsyncMs {
		t.Fatalf("550KB decode = %v ms, must fit in a frame interval", d)
	}
	if p.DecodeMs(100*1024) >= d {
		t.Fatal("decode time must grow with frame size")
	}
}

func TestCPUUtilCalibration(t *testing.T) {
	p := Pixel2()
	// Mobile: render-bound, no network, no decode -> Table 1 shows 9-20%.
	mobile := p.CPUUtil(40, false, 0)
	if mobile < 0.08 || mobile > 0.25 {
		t.Errorf("Mobile CPU = %.2f, want 0.09-0.20", mobile)
	}
	// Multi-Furion 1P: FI render, decoding, ~276 Mbps -> 23-33%.
	furion := p.CPUUtil(3.6, true, 276)
	if furion < 0.2 || furion > 0.36 {
		t.Errorf("Multi-Furion CPU = %.2f, want 0.23-0.33", furion)
	}
	// Coterie 1P: FI+nearBE render (~10ms), decoding, ~26 Mbps -> 27-32%.
	coterie := p.CPUUtil(10, true, 26)
	if coterie < 0.15 || coterie > 0.35 {
		t.Errorf("Coterie CPU = %.2f, want 0.27-0.32", coterie)
	}
	// Thin-client at 2 players saturates ~500 Mbps shared -> still < 40%.
	thin := p.CPUUtil(1.5, true, 250)
	if thin > 0.4 {
		t.Errorf("Thin-client CPU = %.2f, want < 0.40", thin)
	}
}

func TestCPUUtilBounded(t *testing.T) {
	p := Pixel2()
	f := func(r, n float64) bool {
		u := p.CPUUtil(math.Abs(r), true, math.Abs(n))
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGPUUtilCalibration(t *testing.T) {
	p := Pixel2()
	// Mobile: render time beyond vsync -> ~100% GPU (Table 1: 88-99%).
	if u := p.GPUUtil(42, 42); u < 0.85 {
		t.Errorf("Mobile GPU = %.2f", u)
	}
	// Multi-Furion: only FI rendered locally -> ~15% (Table 1: 13-16%).
	if u := p.GPUUtil(2.5, p.VsyncMs); u < 0.10 || u > 0.20 {
		t.Errorf("Multi-Furion GPU = %.2f, want ~0.15", u)
	}
	// Coterie: FI + near BE ~8-10ms -> 40-65% (Table 8).
	if u := p.GPUUtil(9, p.VsyncMs); u < 0.39 || u > 0.66 {
		t.Errorf("Coterie GPU = %.2f, want 0.40-0.65", u)
	}
}

func TestPowerCalibration(t *testing.T) {
	p := Pixel2()
	// Coterie steady state: ~30% CPU, ~55% GPU, ~25 Mbps -> ~4W (Fig 12),
	// lasting more than 2.5 hours on the Pixel 2 battery.
	w := p.PowerW(0.30, 0.55, 25)
	if w < 3.2 || w > 4.8 {
		t.Fatalf("Coterie power = %.2f W, want ~4", w)
	}
	if h := p.BatteryHours(w); h < 2.2 {
		t.Fatalf("battery life = %.2f h, paper says > 2.5h at ~4W", h)
	}
	if !math.IsInf(p.BatteryHours(0), 1) {
		t.Fatal("zero power should give infinite runtime")
	}
}

func TestThermalConvergesBelowLimit(t *testing.T) {
	p := Pixel2()
	th := p.NewThermal()
	if th.Temperature() != p.AmbientC {
		t.Fatalf("initial temperature = %v", th.Temperature())
	}
	// 30 minutes at Coterie's ~4W: temperature rises gradually and stays
	// under the 52C limit (Fig 12).
	var temp float64
	for i := 0; i < 30*60; i++ {
		temp = th.Step(4.0, 1)
	}
	if temp <= p.AmbientC+10 {
		t.Fatalf("temperature after 30 min = %.1fC, expected a clear rise", temp)
	}
	if temp >= p.ThermalCapC {
		t.Fatalf("temperature %.1fC exceeds the %vC limit at 4W", temp, p.ThermalCapC)
	}
	if th.Temperature() >= p.ThermalCapC {
		t.Fatal("should not be throttled at 4W")
	}
}

func TestThermalMonotoneApproach(t *testing.T) {
	p := Pixel2()
	th := p.NewThermal()
	prev := th.Temperature()
	for i := 0; i < 100; i++ {
		cur := th.Step(4.0, 60)
		if cur < prev-1e-9 {
			t.Fatal("temperature decreased while heating")
		}
		prev = cur
	}
	// Steady state ~= ambient + R*P.
	want := p.AmbientC + p.ThermalRes*4
	if math.Abs(prev-want) > 0.5 {
		t.Fatalf("steady state %.2f, want %.2f", prev, want)
	}
	// Cooling: drop power, temperature must fall.
	cool := th.Step(1.0, 300)
	if cool >= prev {
		t.Fatal("temperature did not fall after load drop")
	}
}

func TestThermalThrottleDetectable(t *testing.T) {
	p := Pixel2()
	th := p.NewThermal()
	for i := 0; i < 3600; i++ {
		th.Step(8.0, 10) // unrealistic sustained load
	}
	if th.Temperature() < p.ThermalCapC {
		t.Fatal("8W sustained should exceed the thermal limit")
	}
}

func TestGPUUtilEdgeCases(t *testing.T) {
	p := Pixel2()
	if u := p.GPUUtil(10, 0); u != 1 {
		t.Fatalf("zero interval GPU = %v", u)
	}
	if u := p.GPUUtil(100, 16.7); u != 1 {
		t.Fatalf("over-budget GPU = %v, want capped at 1", u)
	}
}
