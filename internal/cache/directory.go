package cache

import "math/bits"

// Directory is the reverse directory associated with each memory
// controller (§VI-A): it tracks, per cache line, which cluster L2s hold
// the line and in what aggregate state, and computes the coherence
// actions an L2 miss triggers.
//
// It is a full-map directory over up to 64 nodes (the paper's 16
// clusters fit comfortably). The directory returns *what must happen*
// (memory fetch needed? how many extra coherence hops?); the system
// layer converts hops into NoC latency and performs the invalidations
// on the victim caches.

// DirStats counts directory activity.
type DirStats struct {
	Lookups       uint64
	Invalidations uint64 // sharer copies invalidated by writes
	Forwards      uint64 // dirty cache-to-cache transfers
	MemFetches    uint64
}

// dirSlot is one entry of the directory's open-addressing table:
// 16 bytes, four to a host cache line. sharers is the bitmap of nodes
// holding the line; zero marks an empty slot, which is safe because
// an entry is deleted the moment its last sharer leaves.
type dirSlot struct {
	block   uint64
	sharers uint64
}

// dirMinSlots is the table's starting size when no released table is
// free. The table starts small and doubles at ¾ load, so a single-core
// run that touches few lines pays for few slots.
const dirMinSlots = 64

// Directory tracks L2-level sharers of memory lines in a linear-probing
// hash table. The node holding a line in M/E (or -1) lives in owner,
// parallel to slots, so a slot stays 16 bytes. Deletion shifts the rest
// of the probe run back, so the table holds no tombstones.
type Directory struct {
	nodes int
	slots []dirSlot
	owner []int8
	shift uint // 64 - log2(len(slots)): home() keeps the hash's top bits
	count int
	stats DirStats
}

// NewDirectory creates a directory for n nodes (1..64). It starts from
// a released table, cleared and at whatever size it had grown to, when
// one is free (see Release).
func NewDirectory(n int) *Directory {
	if n <= 0 || n > 64 {
		panic("cache: directory supports 1..64 nodes")
	}
	d := &Directory{nodes: n}
	if t, _ := dirTables.Get().(*dirTable); t != nil {
		d.reuse(t)
	} else {
		d.alloc(dirMinSlots)
	}
	return d
}

// reuse installs a released table, cleared, at the size it has.
func (d *Directory) reuse(t *dirTable) {
	clear(t.slots)
	d.setTable(t.slots, t.owner)
}

// alloc installs an empty table of n slots (a power of two).
func (d *Directory) alloc(n int) {
	d.setTable(make([]dirSlot, n), make([]int8, n))
}

// setTable installs an empty table; len(slots) is a power of two and
// owner is as long. Only occupied slots' owners are ever read, so owner
// need not be cleared.
func (d *Directory) setTable(slots []dirSlot, owner []int8) {
	d.slots, d.owner = slots, owner
	d.shift = uint(64 - bits.TrailingZeros(uint(len(slots))))
}

// home is block's preferred slot. Fibonacci hashing mixes the high
// address bits into the index, so power-of-two strides spread out.
func (d *Directory) home(block uint64) int {
	return int((block * 0x9e3779b97f4a7c15) >> d.shift)
}

// find returns the slot holding block, or the empty slot that ends its
// probe run.
func (d *Directory) find(block uint64) (int, bool) {
	mask := len(d.slots) - 1
	for i := d.home(block); ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.sharers == 0 {
			return i, false
		}
		if s.block == block {
			return i, true
		}
	}
}

// insert claims the empty slot i for block, first doubling the table
// if the entry would take it past ¾ load.
func (d *Directory) insert(i int, block, sharers uint64, owner int8) {
	if 4*(d.count+1) > 3*len(d.slots) {
		d.grow()
		i, _ = d.find(block)
	}
	d.slots[i] = dirSlot{block: block, sharers: sharers}
	d.owner[i] = owner
	d.count++
}

// grow doubles the table and reinserts every entry.
func (d *Directory) grow() {
	slots, owner := d.slots, d.owner
	d.alloc(2 * len(slots))
	for i, s := range slots {
		if s.sharers != 0 {
			j, _ := d.find(s.block)
			d.slots[j] = s
			d.owner[j] = owner[i]
		}
	}
}

// remove empties slot i and shifts back every later entry of the probe
// run that may move closer to its home, so lookups never need
// tombstones to skip.
func (d *Directory) remove(i int) {
	mask := len(d.slots) - 1
	for j := (i + 1) & mask; d.slots[j].sharers != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: moving it before its home would hide it.
		if (j-d.home(d.slots[j].block))&mask >= (j-i)&mask {
			d.slots[i], d.owner[i] = d.slots[j], d.owner[j]
			i = j
		}
	}
	d.slots[i] = dirSlot{}
	d.count--
}

// Stats returns a snapshot.
func (d *Directory) Stats() DirStats { return d.stats }

// Outcome describes the coherence work for one L2 fill.
type Outcome struct {
	// NeedMem is true when the line must be fetched from main memory
	// (no dirty owner forwards it).
	NeedMem bool
	// ExtraHops is the number of additional directory↔node message
	// legs beyond the basic request/response pair.
	ExtraHops int
	// Invalidate is the bitmap of nodes whose copies must be
	// invalidated (write requests); Downgrade that of the owner to
	// downgrade (read requests finding an owner). Bit n is node n.
	Invalidate uint64
	Downgrade  uint64
}

// Fill records that node is fetching the line (write = store miss or
// upgrade) and returns the required coherence actions.
func (d *Directory) Fill(block uint64, node int, write bool) Outcome {
	d.checkNode(node)
	d.stats.Lookups++
	i, present := d.find(block)
	var out Outcome
	bit := uint64(1) << uint(node)

	if !present {
		// Cold: grant E to the requester; fetch from memory.
		d.insert(i, block, bit, int8(node))
		out.NeedMem = true
		d.stats.MemFetches++
		return out
	}
	s, owner := &d.slots[i], &d.owner[i]

	if write {
		// Invalidate every other copy.
		out.Invalidate = s.sharers &^ bit
		d.stats.Invalidations += uint64(bits.OnesCount64(out.Invalidate))
		if *owner >= 0 && int(*owner) != node {
			// Dirty owner forwards the line instead of memory.
			out.NeedMem = false
			out.ExtraHops = 2
			d.stats.Forwards++
		} else {
			out.NeedMem = s.sharers&bit == 0 // upgrade of own copy needs no fetch
			if out.NeedMem {
				d.stats.MemFetches++
			}
			if out.Invalidate != 0 {
				out.ExtraHops = 1
			}
		}
		s.sharers, *owner = bit, int8(node)
		return out
	}

	// Read miss.
	if *owner >= 0 && int(*owner) != node {
		// Owner may be dirty: downgrade and forward.
		out.Downgrade = uint64(1) << uint(*owner)
		out.NeedMem = false
		out.ExtraHops = 2
		d.stats.Forwards++
		*owner = -1
	} else {
		out.NeedMem = true
		d.stats.MemFetches++
	}
	s.sharers |= bit
	if s.sharers == bit {
		*owner = int8(node)
	}
	return out
}

// Evict records that node dropped its copy (L2 eviction).
func (d *Directory) Evict(block uint64, node int) {
	d.checkNode(node)
	i, ok := d.find(block)
	if !ok {
		return
	}
	d.slots[i].sharers &^= uint64(1) << uint(node)
	if int(d.owner[i]) == node {
		d.owner[i] = -1
	}
	if d.slots[i].sharers == 0 {
		d.remove(i)
	}
}

// Sharers returns the number of nodes currently holding the line.
func (d *Directory) Sharers(block uint64) int {
	i, ok := d.find(block)
	if !ok {
		return 0
	}
	return bits.OnesCount64(d.slots[i].sharers)
}

func (d *Directory) checkNode(node int) {
	if node < 0 || node >= d.nodes {
		panic("cache: directory node out of range")
	}
}
