package cpu

import (
	"minimaltcb/internal/isa"
	"minimaltcb/internal/mem"
)

// The decoded-instruction cache removes the per-step fetch cost of the
// interpreter: without it every Run iteration performs a checked memory
// read plus an isa.Decode of the same word it decoded on the previous trip
// through a loop.
//
// The cache is direct-mapped on the word's physical address and validated
// against the page's version counter, which internal/mem bumps on every
// write, ZeroRange, and access-control transition (Claim/Seclude/Release/
// Share/Unshare) touching the page. A version match therefore proves both
// that the cached bytes are current (self-modifying PALs invalidate
// themselves by writing) and that the access check performed when the entry
// was filled still holds (SKILL zeroing, page hand-off to another CPU, and
// suspend all bump the version). Fetches whose word straddles a page
// boundary bypass the cache so a single version covers each entry.
//
// The cache is private to its core and only ever touched by the goroutine
// driving that core, so it needs no locking; it is dropped wholesale on
// Reset, matching real hardware where late launch begins from a clean
// microarchitectural state.

// decodeCacheSize is the number of direct-mapped entries (words).
const decodeCacheSize = 4096

type decodeEntry struct {
	key uint32 // physical address + 1; 0 = empty
	ver uint32 // page version when filled
	in  isa.Instruction
}

// SetDecodeCache enables or disables the decoded-instruction cache. It is
// enabled by default; differential tests disable it to compare the cached
// fast path against the always-checked slow path. Disabling drops all
// entries.
func (c *CPU) SetDecodeCache(on bool) {
	c.decodeOff = !on
	if !on {
		c.dcache = nil
	}
}

// DecodeCacheStats counts the decode cache's outcomes. Words straddling a
// page boundary bypass the cache entirely (one page version cannot vouch
// for two pages) — before BoundarySkips existed that bypass was invisible,
// making straddling fetch patterns look like unexplained slowdowns.
type DecodeCacheStats struct {
	// Hits and Misses count lookups of in-page words.
	Hits, Misses int64
	// BoundarySkips counts fetches that bypassed the cache because the
	// word straddles a page boundary.
	BoundarySkips int64
	// VersionEvictions counts misses whose slot held the same address
	// with a stale page version (self-modified code or an ownership
	// transition), as opposed to cold or conflict misses.
	VersionEvictions int64
}

// DecodeCacheStatsSnapshot returns the cache's counters. The counters are
// plain increments on the fetch hot path, so — like every CPUProfiler
// method — this must be called under whatever lock serializes the machine
// (palsvc holds its per-machine mutex across /debug/profile snapshots).
func (c *CPU) DecodeCacheStatsSnapshot() DecodeCacheStats { return c.dstats }

// fetchCached returns the decoded instruction at physical address phys,
// consulting the cache when the word lies within one page.
func (c *CPU) fetchCached(phys uint32) (isa.Instruction, error) {
	if c.decodeOff {
		return c.fetchSlow(phys)
	}
	if phys&(mem.PageSize-1) > mem.PageSize-isa.WordSize {
		c.dstats.BoundarySkips++
		return c.fetchSlow(phys)
	}
	ver := c.chip.Memory().PageVersion(int(phys) / mem.PageSize)
	if c.dcache == nil {
		c.dcache = make([]decodeEntry, decodeCacheSize)
	}
	e := &c.dcache[(phys>>2)&(decodeCacheSize-1)]
	if e.key == phys+1 && e.ver == ver {
		c.dstats.Hits++
		return e.in, nil
	}
	if e.key == phys+1 {
		c.dstats.VersionEvictions++
	}
	c.dstats.Misses++
	in, err := c.fetchSlow(phys)
	if err != nil {
		return in, err
	}
	*e = decodeEntry{key: phys + 1, ver: ver, in: in}
	return in, nil
}

// fetchSlow performs the fully checked read-and-decode.
func (c *CPU) fetchSlow(phys uint32) (isa.Instruction, error) {
	word, err := c.chip.CPUReadWord(c.ID, phys)
	if err != nil {
		return isa.Instruction{}, err
	}
	return isa.Decode(word)
}
