package cache

// refDirectory is the map-keyed directory the open-addressing table
// replaced, kept as the reference TestDirectoryMatchesMapReference and
// FuzzDirectoryOps compare it against.
type refDirectory struct {
	nodes   int
	entries map[uint64]refDirEntry
	stats   DirStats
}

type refDirEntry struct {
	sharers uint64 // bitmap of nodes with the line
	owner   int8   // node holding M/E, or -1
}

func newRefDirectory(n int) *refDirectory {
	return &refDirectory{nodes: n, entries: map[uint64]refDirEntry{}}
}

func (d *refDirectory) Fill(block uint64, node int, write bool) Outcome {
	d.stats.Lookups++
	e, present := d.entries[block]
	var out Outcome
	bit := uint64(1) << uint(node)

	if !present || e.sharers == 0 {
		d.entries[block] = refDirEntry{sharers: bit, owner: int8(node)}
		out.NeedMem = true
		d.stats.MemFetches++
		return out
	}

	if write {
		for n := 0; n < d.nodes; n++ {
			if n == node {
				continue
			}
			if e.sharers&(1<<uint(n)) != 0 {
				out.Invalidate |= 1 << uint(n)
				d.stats.Invalidations++
			}
		}
		if e.owner >= 0 && int(e.owner) != node {
			out.NeedMem = false
			out.ExtraHops = 2
			d.stats.Forwards++
		} else {
			out.NeedMem = e.sharers&bit == 0
			if out.NeedMem {
				d.stats.MemFetches++
			}
			if out.Invalidate != 0 {
				out.ExtraHops = 1
			}
		}
		d.entries[block] = refDirEntry{sharers: bit, owner: int8(node)}
		return out
	}

	if e.owner >= 0 && int(e.owner) != node {
		out.Downgrade = 1 << uint(e.owner)
		out.NeedMem = false
		out.ExtraHops = 2
		d.stats.Forwards++
		e.owner = -1
	} else {
		out.NeedMem = true
		d.stats.MemFetches++
	}
	e.sharers |= bit
	if e.sharers == bit {
		e.owner = int8(node)
	}
	d.entries[block] = e
	return out
}

func (d *refDirectory) Evict(block uint64, node int) {
	e, ok := d.entries[block]
	if !ok {
		return
	}
	e.sharers &^= uint64(1) << uint(node)
	if int(e.owner) == node {
		e.owner = -1
	}
	if e.sharers == 0 {
		delete(d.entries, block)
		return
	}
	d.entries[block] = e
}

func (d *refDirectory) Sharers(block uint64) int {
	e, ok := d.entries[block]
	if !ok {
		return 0
	}
	n := 0
	for s := e.sharers; s != 0; s &= s - 1 {
		n++
	}
	return n
}
