// Package noc models the on-chip interconnect of the 64-core CMP
// (Fig. 7): a 2D mesh of routers (one per 4-core cluster) with
// dimension-ordered XY routing, per-hop router+link latency, and
// per-link serialization so heavy traffic experiences contention.
//
// The model is a link-reservation network: a packet claims each link on
// its path in order; a link busy with an earlier packet delays it. This
// captures the queueing behaviour that matters for memory traffic
// without simulating individual flits.
package noc

import (
	"fmt"

	"microbank/internal/sim"
)

// Mesh is a dim×dim mesh interconnect.
type Mesh struct {
	eng      *sim.Engine
	dim      int
	hop      sim.Time // per-hop router pipeline + link traversal latency
	linkBWps float64  // bytes per picosecond per link

	// linkFree[i] is the earliest time link i is available.
	linkFree []sim.Time

	// Stats.
	Packets   uint64
	TotalHops uint64
	BytesSent uint64
}

// New creates a dim×dim mesh. hop is the per-hop latency; linkGBs the
// per-link bandwidth in GB/s.
func New(eng *sim.Engine, dim int, hop sim.Time, linkGBs float64) *Mesh {
	if dim <= 0 {
		panic("noc: non-positive mesh dimension")
	}
	if linkGBs <= 0 {
		panic("noc: non-positive link bandwidth")
	}
	// Each node has up to 4 outgoing links; index links by
	// (node, direction).
	return &Mesh{
		eng:      eng,
		dim:      dim,
		hop:      hop,
		linkBWps: linkGBs / 1000.0, // GB/s == bytes/ns == 1e-3 bytes/ps
		linkFree: make([]sim.Time, dim*dim*4),
	}
}

// Nodes returns the number of mesh nodes.
func (m *Mesh) Nodes() int { return m.dim * m.dim }

func (m *Mesh) coord(node int) (x, y int) { return node % m.dim, node / m.dim }

func (m *Mesh) node(x, y int) int { return y*m.dim + x }

// direction codes for link indexing.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

func (m *Mesh) linkIndex(node, dir int) int { return node*4 + dir }

// Path returns the XY route from src to dst as a sequence of
// (node, direction) link hops. An empty path means src == dst.
func (m *Mesh) Path(src, dst int) [](int) {
	m.check(src)
	m.check(dst)
	var links []int
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	for x != dx {
		if x < dx {
			links = append(links, m.linkIndex(m.node(x, y), dirEast))
			x++
		} else {
			links = append(links, m.linkIndex(m.node(x, y), dirWest))
			x--
		}
	}
	for y != dy {
		if y < dy {
			links = append(links, m.linkIndex(m.node(x, y), dirSouth))
			y++
		} else {
			links = append(links, m.linkIndex(m.node(x, y), dirNorth))
			y--
		}
	}
	return links
}

// Hops returns the Manhattan distance between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	m.check(src)
	m.check(dst)
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	h := x - dx
	if h < 0 {
		h = -h
	}
	v := y - dy
	if v < 0 {
		v = -v
	}
	return h + v
}

// deliverCb invokes a delivery callback carried as a ScheduleArg
// payload; func values convert to `any` without boxing, so deliveries
// allocate no closure.
var deliverCb = func(e *sim.Engine, arg any) { arg.(func(at sim.Time))(e.Now()) }

// claimLink reserves link for a packet departing no earlier than t with
// the given serialization time, returning the packet's time after the
// hop.
func (m *Mesh) claimLink(link int, t, ser sim.Time) sim.Time {
	depart := t
	if m.linkFree[link] > depart {
		depart = m.linkFree[link]
	}
	m.linkFree[link] = depart + ser
	return depart + m.hop
}

// Send routes a packet of the given size and schedules deliver at the
// arrival time (contention included). Local delivery (src == dst) still
// pays one hop of router latency. The XY walk claims links in place
// rather than materializing a Path slice, so sending allocates nothing.
func (m *Mesh) Send(src, dst, bytes int, deliver func(at sim.Time)) {
	m.check(src)
	m.check(dst)
	now := m.eng.Now()
	m.Packets++
	m.BytesSent += uint64(bytes)
	ser := sim.Time(float64(bytes)/m.linkBWps + 0.5)
	t := now
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	hops := uint64(0)
	for x != dx {
		if x < dx {
			t = m.claimLink(m.linkIndex(m.node(x, y), dirEast), t, ser)
			x++
		} else {
			t = m.claimLink(m.linkIndex(m.node(x, y), dirWest), t, ser)
			x--
		}
		hops++
	}
	for y != dy {
		if y < dy {
			t = m.claimLink(m.linkIndex(m.node(x, y), dirSouth), t, ser)
			y++
		} else {
			t = m.claimLink(m.linkIndex(m.node(x, y), dirNorth), t, ser)
			y--
		}
		hops++
	}
	m.TotalHops += hops
	if hops == 0 {
		t = now + m.hop
	}
	m.eng.ScheduleArg(t, deliverCb, deliver)
}

// Latency returns the uncongested latency for a packet between two
// nodes (hops × hop latency, minimum one hop).
func (m *Mesh) Latency(src, dst int) sim.Time {
	h := m.Hops(src, dst)
	if h == 0 {
		h = 1
	}
	return sim.Time(h) * m.hop
}

// AvgHops returns mean hops per packet so far.
func (m *Mesh) AvgHops() float64 {
	if m.Packets == 0 {
		return 0
	}
	return float64(m.TotalHops) / float64(m.Packets)
}

func (m *Mesh) check(node int) {
	if node < 0 || node >= m.Nodes() {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", node, m.Nodes()))
	}
}
