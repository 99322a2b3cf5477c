package cache

import "sync"

// Storage reuse across runs. A cache's tag array and a directory's
// table are the largest allocations a simulated machine makes: a 2 MB
// L2 holds a 512 KB tag array, and a directory doubles its table as it
// grows. A sweep builds a fresh machine per cell, so without reuse
// every cell allocates, and the collector frees, the same arrays again.
// Release hands them back here; New and NewDirectory take them out and
// clear them, so a reused array starts exactly as a fresh one would.
// sync.Pool keeps the store safe for concurrent runs and lets the
// collector drop what no run has claimed for two cycles.

// linePools holds released tag arrays, one *sync.Pool of *[]line per
// array length.
var linePools sync.Map

// dirTables holds released directory tables (*dirTable) of any size: a
// directory continues growing from the size it receives, and its
// outcomes do not depend on its table size. Pooling by size instead
// would keep every intermediate growth table alive.
var dirTables sync.Pool

type dirTable struct {
	slots []dirSlot
	owner []int8
}

// takeLines returns a cleared tag array of n lines.
func takeLines(n int) []line {
	if p, ok := linePools.Load(n); ok {
		if l, _ := p.(*sync.Pool).Get().(*[]line); l != nil {
			clear(*l)
			return *l
		}
	}
	return make([]line, n)
}

// putLines stores a tag array for a later takeLines of its length.
func putLines(l []line) {
	p, ok := linePools.Load(len(l))
	if !ok {
		p, _ = linePools.LoadOrStore(len(l), new(sync.Pool))
	}
	p.(*sync.Pool).Put(&l)
}

// Release returns the cache's tag array for reuse by a later New. The
// cache must not be accessed afterwards; its Stats stay readable.
func (c *Cache) Release() {
	if c.lines != nil {
		putLines(c.lines)
		c.lines = nil
	}
}

// Release returns the directory's table for reuse by a later
// NewDirectory. The directory must not be used afterwards; its Stats
// stay readable.
func (d *Directory) Release() {
	if d.slots != nil {
		dirTables.Put(&dirTable{slots: d.slots, owner: d.owner})
		d.slots, d.owner = nil, nil
	}
}
