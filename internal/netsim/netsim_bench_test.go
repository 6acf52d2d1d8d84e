package netsim

import "testing"

func BenchmarkSimEventThroughput(b *testing.B) {
	b.ReportAllocs()
	s := NewSim()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(1, tick)
		}
	}
	b.ResetTimer()
	s.After(1, tick)
	s.Run(float64(b.N) * 2)
}

func BenchmarkWiFiContention(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSim()
		w := NewWiFi(s)
		// 4 players x 50 staggered transfers through the shared medium.
		for p := 0; p < 4; p++ {
			p := p
			for k := 0; k < 50; k++ {
				k := k
				s.At(float64(k)*16.7, func() {
					w.Transfer(p, 400*1024, nil)
				})
			}
		}
		s.Run(1e9)
	}
}
