package world

import (
	"math"
	"slices"
)

// Per-frame binning. Every column of a panorama shares its eye and its
// window, so which objects a column can see is decided once per frame: each
// object gets the interval of columns whose yaw falls inside its XZ
// footprint's angular extent from the eye (sphere tangents, box silhouette
// corners), a distance pre-cull against the window and a frame-wide row
// interval, and each column lists its objects in ascending index order.
// Gather (column.go) then walks a column's DDA without reading a cell list
// and looks up each binned object's first visited cell from the walk's
// steps.
//
// Every interval is a superset of what consider accepts in any column of
// the frame: footprints are inflated by binSlack of their distance, far
// above consider's 1e-9 slack (which admits a ray up to ~sqrt(1e-9) of the
// distance outside a sphere), distances are bounded outward and row keys
// widened by qSlack, so binning never drops a candidate the cell-list walk
// would keep.
//
// The work is split into parts over the object list, each binning its own
// objects into its own per-column lists; a column's objects are the parts'
// lists in part order, which keeps them in ascending index order. The parts
// run as a parallel phase of the render ahead of the columns (Bins.Run).

// Binning margins: binSlack is relative to the eye-to-object distance,
// binPad metres, qSlack in the row key rowKey, eyeGap metres: an eye this
// close to an object's footprint gives the object every column.
const (
	binSlack = 1e-4
	binPad   = 1e-6
	qSlack   = 1e-6
	eyeGap   = 1e-3
)

// narrowCols is the column count below which an object is narrow: it takes
// its frame-wide row interval in every column instead of consider's exact
// per-column one. Wide objects (room-sized boxes around the eye) span many
// columns whose exact intervals are much tighter than the frame's.
const narrowCols = 8

// Bins is the binning of a scene's objects to the columns of one panorama
// frame. NewBins sets its fixed geometry; Scene.Bin starts a frame for an
// eye and a window, and Run(i) for every part i < Parts() bins it. It is
// read-only from then until the next Bin, so the columns of one frame may
// be gathered concurrently, each with its own Query.
type Bins struct {
	sinYaw, cosYaw []float64
	// colP is the pseudoAngle of each column's direction (ascending) and
	// colAt[k] the first column whose colP falls in bucket k or later;
	// rowQ and rowAt are the same for rowKey of each row's Tan
	// (descending).
	colP  []float64
	colAt []int32
	rowQ  []float64
	rowAt []int32

	// Per frame: the scene, the column template (no yaw), the objects to
	// bin (list, or every object when all), and the parts.
	scene *Scene
	col   Column
	list  []int32
	all   bool
	parts []binPart
}

// binPart is one part's share of a frame: objects [lo, hi) of the frame's
// list, and column x's binned objects entries[start[x]:start[x+1]].
type binPart struct {
	lo, hi  int
	start   []int32
	entries []binEntry
	// peak is the largest number of objects a column has got from this
	// part, over every frame binned in it.
	peak int
	// Scratch: the extents extent computes, their placed bins, and the
	// per-column fill cursors.
	ext  []binExtent
	bins []binObj
	next []int32
}

// binEntry is one object binned to a column: lo, hi is a narrow object's
// frame-wide row interval (inclusive); hi < 0 marks a wide one, judged
// per column by consider.
type binEntry struct {
	obj, lo, hi int32
}

func (e *binEntry) wide() bool { return e.hi < 0 }

// binExtent is an object's angular extent [pa, pb] in pseudo-angles
// (wrapping when pa > pb) and its row keys qLo, qHi, or all columns.
type binExtent struct {
	obj              int32
	all              bool
	pa, pb, qHi, qLo float64
}

// binObj is one object's bin: n columns from x0, wrapping at the last.
type binObj struct {
	binEntry
	x0, n int32
}

// NewBins returns bins for the columns with unit XZ directions (sinYaw[x],
// cosYaw[x]), whose yaws must ascend over (-pi, pi), and the rows with
// pitch tangents tan (falling strictly): the Tan of every Column binned.
func NewBins(sinYaw, cosYaw, tan []float64) *Bins {
	b := &Bins{}
	b.setColumns(sinYaw, cosYaw)
	b.setRows(tan)
	return b
}

// setColumns builds the column lookup for sinYaw, cosYaw.
func (b *Bins) setColumns(sinYaw, cosYaw []float64) {
	b.sinYaw, b.cosYaw = sinYaw, cosYaw
	b.colP = b.colP[:0]
	for x := range sinYaw {
		b.colP = append(b.colP, pseudoAngle(sinYaw[x], cosYaw[x]))
	}
	b.colAt = buckets(b.colAt, b.colP, colBucket)
}

// setRows builds the row lookup for tan.
func (b *Bins) setRows(tan []float64) {
	b.rowQ = b.rowQ[:0]
	for _, t := range tan {
		b.rowQ = append(b.rowQ, rowKey(t, 1))
	}
	b.rowAt = buckets(b.rowAt, b.rowQ, rowBucket)
}

// pseudoAngle maps the direction (x, z) to a value in [-2, 2] that rises
// strictly with its yaw atan2(x, z): the yaw's quadrant plus a division,
// no trigonometry. (x, z) must not be zero.
func pseudoAngle(x, z float64) float64 {
	return quadrant(x, z, x/(math.Abs(x)+math.Abs(z)))
}

// quadrant completes pseudoAngle(x, z) from t = x/(|x|+|z|): t ahead
// (z >= 0), +-2 - t behind, without a branch.
func quadrant(x, z, t float64) float64 {
	return t + signBit(z)*(math.Copysign(2, x)-2*t)
}

// signBit is 1 when v's sign bit is set (v < 0 or v = -0), 0 otherwise.
func signBit(v float64) float64 { return float64(math.Float64bits(v) >> 63) }

// rowKey maps the pitch tangent h/s (s > 0) to h/(s+|h|) in (-1, 1), which
// rises strictly with it and stays finite at the poles.
func rowKey(h, s float64) float64 { return h / (s + math.Abs(h)) }

// bucketsPer is the number of lookup buckets per column or row.
const bucketsPer = 16

// colBucket and rowBucket map a pseudo-angle or a row key of a table of n
// values to one of bucketsPer*n buckets, both monotone: rising with the
// angle, falling with the key (rows run from the zenith down).
func colBucket(p float64, n int) int {
	return min(max(int((p+2)*float64(bucketsPer*n)/4), 0), bucketsPer*n-1)
}

func rowBucket(q float64, n int) int {
	return min(max(int((1-q)*float64(bucketsPer*n)/2), 0), bucketsPer*n-1)
}

// buckets fills at[k] with the first index of vals whose bucket is k or
// later (len(vals) if none): a lookup starting there never has to step
// back.
func buckets(at []int32, vals []float64, bucket func(float64, int) int) []int32 {
	n := len(vals)
	at = slices.Grow(at[:0], bucketsPer*n)[:bucketsPer*n]
	k := 0
	for i, v := range vals {
		for bv := bucket(v, n); k <= bv; k++ {
			at[k] = int32(i)
		}
	}
	for ; k < len(at); k++ {
		at[k] = int32(n)
	}
	return at
}

// firstCol returns the first column whose pseudo-angle is >= p (or > p
// when strict), len(colP) if there is none.
func (b *Bins) firstCol(p float64, strict bool) int {
	n := len(b.colP)
	x := int(b.colAt[colBucket(p, n)])
	for x < n && (b.colP[x] < p || strict && b.colP[x] == p) {
		x++
	}
	return x
}

// firstRow returns the first row whose key is <= q (or < q when strict),
// len(rowQ) if there is none.
func (b *Bins) firstRow(q float64, strict bool) int {
	n := len(b.rowQ)
	y := int(b.rowAt[rowBucket(q, n)])
	for y < n && (b.rowQ[y] > q || strict && b.rowQ[y] == q) {
		y++
	}
	return y
}

// Bin starts binning the scene's objects to b's columns for the eye, rows
// and window of col (whose yaw is ignored and whose Tan is b's), in the
// given number of parts; Run(i) for every part i then bins them. With a
// finite TMax only the objects the index lists within reach of the window
// are binned.
func (s *Scene) Bin(b *Bins, col *Column, parts int) {
	b.scene, b.col = s, *col
	n := len(s.Objects)
	b.all = true
	if ix := s.index; !math.IsInf(col.TMax, 1) {
		reach := col.TMax*(1+binSlack) + binPad
		c0, r0 := ix.cellOf(col.Eye.X-reach, col.Eye.Z-reach)
		c1, r1 := ix.cellOf(col.Eye.X+reach, col.Eye.Z+reach)
		if (c1-c0+1)*(r1-r0+1) < n {
			// Each object once: in the first cell of the scanned
			// rectangle that lists it.
			list := b.list[:0]
			for r := r0; r <= r1; r++ {
				for c := c0; c <= c1; c++ {
					for _, oi := range ix.cells[r*ix.cols+c] {
						rc := &ix.rects[oi]
						if max(int(rc.c0), c0) == c && max(int(rc.r0), r0) == r {
							list = append(list, oi)
						}
					}
				}
			}
			slices.Sort(list)
			b.list, b.all, n = list, false, len(list)
		}
	}
	parts = max(parts, 1)
	for len(b.parts) < parts {
		b.parts = append(b.parts, binPart{})
	}
	b.parts = b.parts[:parts]
	for i := range b.parts {
		b.parts[i].lo, b.parts[i].hi = i*n/parts, (i+1)*n/parts
	}
}

// Parts returns the number of parts of the frame Bin started.
func (b *Bins) Parts() int { return len(b.parts) }

// peak bounds the number of objects binned to any one column, in this
// frame and every earlier frame of these bins.
func (b *Bins) peak() int {
	n := 0
	for i := range b.parts {
		n += b.parts[i].peak
	}
	return n
}

// Run bins part i of the frame: its objects' extents, their column and row
// intervals, and its per-column lists. Distinct parts may run concurrently.
func (b *Bins) Run(i int) {
	p := &b.parts[i]
	p.bins = p.bins[:0]
	for lo := p.lo; lo < p.hi; lo += binChunk {
		p.ext = p.ext[:0]
		for k := lo; k < min(lo+binChunk, p.hi); k++ {
			oi := int32(k)
			if !b.all {
				oi = b.list[k]
			}
			b.extent(p, oi)
		}
		b.place(p)
	}
	b.fill(p)
}

// binChunk is how many objects' extents a part computes before placing
// them: enough to keep extent's loop long, few enough to stay in cache.
const binChunk = 256

// extent appends object oi's angular extent and row keys to p.ext unless
// the window culls it. Its square roots and its division are most of a
// bin's cost on a divider-bound core, so it is kept free of data-dependent
// branches (the four ratios share one reciprocal, and selections are min,
// max or arithmetic), letting consecutive objects' chains overlap.
func (b *Bins) extent(p *binPart, oi int32) {
	o := &b.scene.Objects[oi]
	col := &b.col
	ex, ez := col.Eye.X, col.Eye.Z
	// The horizontal distance range of the footprint from the eye, the
	// vertical extent relative to the eye, and the directions (ax, az),
	// (bx, bz) that start and end the inflated footprint's angular extent
	// (rising yaw), unless the eye is at or in the footprint (all).
	var hmin, hmax, up, down, ax, az, bx, bz float64
	var all bool
	switch o.Kind {
	case KindSphere:
		dx, dz := o.Center.X-ex, o.Center.Z-ez
		d2, r := dx*dx+dz*dz, o.Radius
		// |dx|+|dz| >= d keeps the inflated radius off the root of d^2,
		// so both roots can run at once.
		rr := r + binSlack*(math.Abs(dx)+math.Abs(dz)+r) + binPad
		d, c := math.Sqrt(d2), math.Sqrt(max(d2-rr*rr, 0))
		all = d-rr <= eyeGap
		hmin, hmax = max(d-r, 0), d+r
		up, down = o.Center.Y+r-col.Eye.Y, o.Center.Y-r-col.Eye.Y
		// The tangent directions: (dx, dz) turned by -+asin(rr/d),
		// scaled by d^2.
		ax, az = dx*c-dz*rr, dz*c+dx*rr
		bx, bz = dx*c+dz*rr, dz*c-dx*rr
	default:
		bb := o.Bounds()
		x0, x1 := bb.Min.X-ex, bb.Max.X-ex
		z0, z1 := bb.Min.Z-ez, bb.Max.Z-ez
		gx, gz := max(x0, -x1, 0), max(z0, -z1, 0)
		hmin = math.Sqrt(gx*gx + gz*gz)
		fx, fz := max(-x0, x1), max(-z0, z1)
		hmax = math.Sqrt(fx*fx + fz*fz)
		up, down = bb.Max.Y-col.Eye.Y, bb.Min.Y-col.Eye.Y
		pad := binSlack*(max(fx, fz)+o.Half.X+o.Half.Z) + binPad
		x0, x1, z0, z1 = x0-pad, x1+pad, z0-pad, z1+pad
		all = max(x0, -x1) <= eyeGap && max(z0, -z1) <= eyeGap
		ax, az, bx, bz = silhouette(x0, x1, z0, z1)
	}

	// Distance window, as in consider over the widest span any column can
	// have: [s0, s1] holds every horizontal distance of the footprint.
	s0, s1 := max(hmin*(1-binSlack)-binPad, 0), hmax*(1+binSlack)+binPad
	vNear := max(0, down, -up)
	vFar := max(up, -up, down, -down)
	if s1*s1+vFar*vFar < col.TMin*col.TMin*(1-binSlack) || s0*s0+vNear*vNear > col.TMax*col.TMax*(1+binSlack) {
		return
	}
	if all {
		p.ext = append(p.ext, binExtent{obj: oi, all: true})
		return
	}

	// Rows, as in consider over [s0, s1] (s0 > 0 outside the eye's gap,
	// so no denominator below is 0):
	// the keys rowKey(up, s1 if up < 0 else s0) and rowKey(down, s1 if
	// down > 0 else s0), and the extent's pseudo-angles, over one
	// reciprocal.
	sUp := s0 + (s1-s0)*signBit(up)
	sDown := s0 + (s1-s0)*signBit(-down)
	da, db := math.Abs(ax)+math.Abs(az), math.Abs(bx)+math.Abs(bz)
	du, dd := sUp+math.Abs(up), sDown+math.Abs(down)
	inv := 1 / (da * db * du * dd)
	p.ext = append(p.ext, binExtent{
		obj: oi,
		pa:  quadrant(ax, az, ax*db*du*dd*inv),
		pb:  quadrant(bx, bz, bx*da*du*dd*inv),
		qHi: up*da*db*dd*inv + qSlack,
		qLo: down*da*db*du*inv - qSlack,
	})
}

// silhouette returns the corners of the rectangle [x0, x1] x [z0, z1],
// relative to an eye outside it, that start and end its angular extent in
// rising yaw atan2(x, z): for a rectangle ahead (z0 > 0) the near edge's
// corners, behind (z1 < 0) the near edge's reversed, and so on round the
// eight regions outside it.
func silhouette(x0, x1, z0, z1 float64) (ax, az, bx, bz float64) {
	right, left := x0 > 0, x1 < 0
	ahead, behind := z0 > 0, z1 < 0
	ax, az, bx, bz = x1, z0, x0, z1
	if ahead || !behind && right {
		ax = x0
	}
	if right || !left && behind {
		az = z1
	}
	if ahead || !behind && left {
		bx = x1
	}
	if right || !left && ahead {
		bz = z0
	}
	return ax, az, bx, bz
}

// place appends part p's extents as column and row intervals to p.bins,
// dropping the objects no column or row of the window sees.
func (b *Bins) place(p *binPart) {
	w := int32(len(b.colP))
	for i := range p.ext {
		e := &p.ext[i]
		if e.all {
			p.bins = append(p.bins, binObj{binEntry: binEntry{obj: e.obj, hi: -1}, n: w})
			continue
		}
		x0, x1 := int32(b.firstCol(e.pa, false)), int32(b.firstCol(e.pb, true))
		n := x1 - x0
		if e.pa > e.pb {
			n += w // across the yaw +-pi
		}
		if n <= 0 {
			continue
		}
		if x0 == w {
			x0 = 0
		}
		lo, hi := int32(0), int32(-1)
		if n < narrowCols {
			lo = int32(max(b.firstRow(e.qHi, false), b.col.RowLo))
			hi = int32(min(b.firstRow(e.qLo, true), b.col.RowHi) - 1)
			if lo > hi {
				continue
			}
		}
		p.bins = append(p.bins, binObj{binEntry{e.obj, lo, hi}, x0, n})
	}
}

// fill lists part p's bins per column, in the order binned.
func (b *Bins) fill(p *binPart) {
	w := len(b.colP)
	start := slices.Grow(p.start[:0], w+1)[:w+1]
	clear(start)
	// Counts by a difference array over the (possibly wrapping) intervals,
	// shifted by one: start[x+1] counts column x.
	for i := range p.bins {
		x0, x1 := int(p.bins[i].x0), int(p.bins[i].x0+p.bins[i].n)
		start[x0+1]++
		if x1 > w {
			start[1]++
			x1 -= w
		}
		if x1 < w {
			start[x1+1]--
		}
	}
	run := int32(0)
	for x := 1; x <= w; x++ {
		run += start[x]
		start[x] = start[x-1] + run
		p.peak = max(p.peak, int(run))
	}
	p.start = start
	p.entries = slices.Grow(p.entries[:0], int(start[w]))[:start[w]]
	next := append(p.next[:0], start[:w]...)
	for i := range p.bins {
		e := &p.bins[i]
		x := int(e.x0)
		for range e.n {
			p.entries[next[x]] = e.binEntry
			next[x]++
			if x++; x == w {
				x = 0
			}
		}
	}
	p.next = next
}
