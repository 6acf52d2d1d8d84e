// Package device is the analytical model of a commodity VR phone (the
// paper's Pixel 2) that substitutes for measuring on real hardware: render
// time as a function of triangle load, hardware-decoder latency, CPU load
// from packet processing and decoding, GPU utilisation, a first-order
// thermal model, and battery power draw.
//
// Calibration targets (the paper's measured operating points):
//
//   - Mobile (local rendering of the whole scene): 38-50 ms per frame,
//     88-99 % GPU (Table 1).
//   - FI rendering: bounded well below 4 ms (§4.3).
//   - Constraint 1: RT_FI + RT_nearBE < 16.7 ms, giving the near-BE budget
//     of 12.7 ms used by the adaptive cutoff scheme.
//   - Multi-Furion: ~15 % GPU (FI only), 23-33 % CPU (Table 1).
//   - Coterie: 27-32 % CPU, 39-65 % GPU (Tables 7, 8; Fig 12), ~4 W power,
//     SoC temperature below the 52 C thermal limit over 30 minutes.
package device

import "math"

// Profile holds the performance constants of one device model. The zero
// value is not useful; start from Pixel2().
type Profile struct {
	Name string

	// TriPerMs is GPU triangle throughput in triangles per millisecond
	// for scene geometry rendered by the local engine.
	TriPerMs float64
	// RenderBaseMs is the fixed per-frame rendering overhead (driver,
	// projection, compositing).
	RenderBaseMs float64
	// FIRenderMs is the measured upper bound for rendering foreground
	// interactions (§4.3: "bounded well below 4 ms on Pixel 2").
	FIRenderMs float64
	// CullFactor is the fraction denominator for whole-scene rendering:
	// frustum and occlusion culling plus LOD mean the engine draws about
	// 1/CullFactor of the total scene triangles from a typical viewpoint.
	CullFactor float64
	// FrustumCull is the denominator for per-frame near-BE rendering: the
	// engine draws the current field of view plus a guard band (~160 of
	// 360 degrees), so the per-frame cost is the all-around triangle
	// count divided by this. The cutoff search deliberately does NOT
	// apply it — the offline budget must hold for any head orientation —
	// which is why measured GPU load sits well below the 16.7 ms budget
	// (the paper's 39-57% GPU, Table 8).
	FrustumCull float64

	// DecodeBaseMs and DecodePerKB model the hardware H.264 decoder.
	DecodeBaseMs float64
	DecodePerKB  float64

	// VsyncMs is the display refresh interval (60 Hz).
	VsyncMs float64

	// CPU model: fractions of total CPU (all cores) in [0,1].
	CPUBase      float64 // OS + game logic + sensors
	CPUDecode    float64 // added while the hardware decode pipeline runs
	CPUPerMbps   float64 // packet processing cost per Mbps received
	CPURenderMax float64 // added at full GPU-feeding render load

	// Battery model in watts.
	PowerBase   float64
	PowerGPU    float64 // at 100% GPU
	PowerCPU    float64 // at 100% CPU
	PowerPerMbW float64 // per Mbps of radio traffic

	// Thermal model: first-order RC from power to SoC temperature.
	AmbientC    float64
	ThermalRes  float64 // C per watt at steady state
	ThermalTauS float64 // time constant in seconds
	ThermalCapC float64 // vendor thermal-engine limit (52 C on Pixel 2)

	// BatteryWh is the battery energy (Pixel 2: 2770 mAh * 3.85 V ~ 10.7 Wh).
	BatteryWh float64
}

// Pixel2 returns the calibrated profile for the paper's client device.
func Pixel2() Profile {
	return Profile{
		Name:         "Pixel 2",
		TriPerMs:     60_000,
		RenderBaseMs: 1.6,
		FIRenderMs:   3.6,
		CullFactor:   25,
		FrustumCull:  2.2,
		DecodeBaseMs: 3.0,
		DecodePerKB:  0.012,
		VsyncMs:      1000.0 / 60,
		CPUBase:      0.085,
		CPUDecode:    0.09,
		CPUPerMbps:   0.00042,
		CPURenderMax: 0.10,
		PowerBase:    1.35,
		PowerGPU:     2.6,
		PowerCPU:     2.2,
		PowerPerMbW:  0.0035,
		AmbientC:     24,
		ThermalRes:   5.6,
		ThermalTauS:  420,
		ThermalCapC:  52,
		BatteryWh:    10.66,
	}
}

// RenderMs returns the time to render the given triangle count with the
// local engine (no culling — the caller passes the triangles actually
// drawn).
func (p Profile) RenderMs(tris int) float64 {
	return p.RenderBaseMs + float64(tris)/p.TriPerMs
}

// NearBERenderMs returns the orientation-independent render time for a
// near BE containing the given all-around triangle count. This is the
// quantity Constraint 1 bounds during offline cutoff search.
func (p Profile) NearBERenderMs(tris int) float64 { return p.RenderMs(tris) }

// NearBEFrameMs returns the actual per-frame cost of rendering the near BE
// for the current field of view (frustum culling applied).
func (p Profile) NearBEFrameMs(tris int) float64 {
	cull := p.FrustumCull
	if cull < 1 {
		cull = 1
	}
	return p.RenderMs(int(float64(tris) / cull))
}

// FullSceneRenderMs returns the time for local rendering of the whole
// scene (the Mobile baseline): culling and LOD reduce the drawn set.
func (p Profile) FullSceneRenderMs(totalTris int) float64 {
	return p.RenderMs(int(float64(totalTris) / p.CullFactor))
}

// DecodeMs returns hardware decoder latency for an encoded frame size.
func (p Profile) DecodeMs(bytes int) float64 {
	return p.DecodeBaseMs + float64(bytes)/1024*p.DecodePerKB
}

// CPUUtil returns the modelled CPU utilisation fraction in [0,1].
//
//	renderMs:   local rendering time per frame (drives game-thread load)
//	decoding:   whether the decode pipeline is active this interval
//	netMbps:    current download rate over WiFi
func (p Profile) CPUUtil(renderMs float64, decoding bool, netMbps float64) float64 {
	u := p.CPUBase
	if decoding {
		u += p.CPUDecode
	}
	u += netMbps * p.CPUPerMbps
	load := renderMs / p.VsyncMs
	if load > 1 {
		load = 1
	}
	u += p.CPURenderMax * load
	return math.Min(u, 1)
}

// GPUUtil returns the modelled GPU utilisation fraction in [0,1] given the
// per-frame render time and the achieved inter-frame interval.
func (p Profile) GPUUtil(renderMs, intervalMs float64) float64 {
	if intervalMs <= 0 {
		return 1
	}
	return math.Min(renderMs/intervalMs, 1)
}

// PowerW returns the battery power draw in watts.
func (p Profile) PowerW(cpuUtil, gpuUtil, netMbps float64) float64 {
	return p.PowerBase + p.PowerGPU*gpuUtil + p.PowerCPU*cpuUtil + p.PowerPerMbW*netMbps
}

// BatteryHours returns the runtime at a constant power draw.
func (p Profile) BatteryHours(powerW float64) float64 {
	if powerW <= 0 {
		return math.Inf(1)
	}
	return p.BatteryWh / powerW
}

// Thermal integrates the first-order SoC temperature model.
type Thermal struct {
	p Profile
	t float64 // current temperature
}

// NewThermal starts a thermal trace at ambient temperature.
func (p Profile) NewThermal() *Thermal { return &Thermal{p: p, t: p.AmbientC} }

// Step advances the model by dt seconds at the given power draw and
// returns the new SoC temperature in Celsius.
func (th *Thermal) Step(powerW, dtSeconds float64) float64 {
	target := th.p.AmbientC + th.p.ThermalRes*powerW
	alpha := 1 - math.Exp(-dtSeconds/th.p.ThermalTauS)
	th.t += (target - th.t) * alpha
	return th.t
}

// Temperature returns the current SoC temperature.
func (th *Thermal) Temperature() float64 { return th.t }
