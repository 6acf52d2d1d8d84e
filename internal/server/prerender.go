package server

import (
	"fmt"
	"sync/atomic"

	"coterie/internal/geom"
	"coterie/internal/par"
)

// The paper's server pre-renders and pre-encodes panoramic far-BE frames
// for all reachable grid points offline (§5.1). Rendering every point of a
// 24M-point world is unnecessary here (frames are memoised on demand), but
// warming a region ahead of a session removes first-request latency; this
// file provides that warm-up. Warmed frames land in the shared frame
// store, so they obey its byte budget: warming more than the budget holds
// simply cycles the LRU, and store_bytes never exceeds the budget.

// PrerenderStats summarises a warm-up pass.
type PrerenderStats struct {
	Points   int   // grid points covered
	Rendered int   // newly rendered (others were already cached)
	Bytes    int64 // total encoded size of newly rendered frames
}

// PrerenderRegion renders and encodes the far-BE frames for the grid
// points inside the rectangle, sampling every strideSteps-th grid index in
// each axis (stride 1 = every point), on GOMAXPROCS workers.
func (s *Server) PrerenderRegion(region geom.Rect, strideSteps int) (PrerenderStats, error) {
	if strideSteps < 1 {
		strideSteps = 1
	}
	grid := s.env.Game.Scene.Grid
	lo := grid.Snap(geom.V2(region.MinX, region.MinZ))
	hi := grid.Snap(geom.V2(region.MaxX, region.MaxZ))
	if hi.I < lo.I || hi.J < lo.J {
		return PrerenderStats{}, fmt.Errorf("server: empty prerender region %+v", region)
	}
	cols := (hi.I-lo.I)/strideSteps + 1
	rows := (hi.J-lo.J)/strideSteps + 1

	var rendered, points, bytes atomic.Int64
	err := par.ForErr(cols*rows, func(k int) error {
		pt := geom.GridPoint{
			I: lo.I + (k%cols)*strideSteps,
			J: lo.J + (k/cols)*strideSteps,
		}
		res, err := s.frameFor(frameReq{pt: pt})
		if err != nil {
			return err
		}
		points.Add(1)
		if res.rendered {
			rendered.Add(1)
			bytes.Add(int64(len(res.Data)))
		}
		return nil
	})
	return PrerenderStats{
		Points:   int(points.Load()),
		Rendered: int(rendered.Load()),
		Bytes:    bytes.Load(),
	}, err
}
