package render

import (
	"math"
	"testing"
)

func benchScene(n int) *Renderer {
	return New(denseScene(99, n), DefaultConfig())
}

func BenchmarkPanoramaWhole(b *testing.B) {
	r := benchScene(300)
	eye := r.Scene.EyeAt(r.Scene.Bounds.Center())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ReleaseGray(r.Panorama(eye, 0, math.Inf(1), nil))
	}
}

func BenchmarkPanoramaFar(b *testing.B) {
	r := benchScene(300)
	eye := r.Scene.EyeAt(r.Scene.Bounds.Center())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ReleaseGray(r.Panorama(eye, 8, math.Inf(1), nil))
	}
}

func BenchmarkNearFrame(b *testing.B) {
	r := benchScene(300)
	eye := r.Scene.EyeAt(r.Scene.Bounds.Center())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ReleaseFrame(r.NearFrame(eye, 8, nil))
	}
}

func BenchmarkMerge(b *testing.B) {
	r := benchScene(100)
	eye := r.Scene.EyeAt(r.Scene.Bounds.Center())
	near := r.NearFrame(eye, 8, nil)
	far := r.Panorama(eye, 8, math.Inf(1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(near, far)
	}
}
