package cache

import (
	"sync"

	"microbank/internal/reuse"
)

// Storage reuse across runs. A cache's tag array and a directory's
// table are the largest allocations a simulated machine makes: a 2 MB
// L2 holds a 512 KB tag array, and a directory doubles its table as it
// grows. Release hands tag arrays to the module's reuse store, where
// New takes them out cleared, so a reused array starts exactly as a
// fresh one would. Directory tables are the one exception to that
// store, kept in a pool of their own below.

// dirTables holds released directory tables (*dirTable) of any size: a
// directory continues growing from the size it receives, and its
// outcomes do not depend on its table size. Pooling by size instead
// would keep every intermediate growth table alive.
var dirTables sync.Pool

type dirTable struct {
	slots []dirSlot
	owner []int8
}

// Release returns the cache's tag array for reuse by a later New. The
// cache must not be accessed afterwards; its Stats stay readable.
func (c *Cache) Release() {
	reuse.Put(c.lines)
	c.lines = nil
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
