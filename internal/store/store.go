// Package store holds the task-instance log in columnar form: one typed
// array per attribute, grouped contiguously by batch. At full scale the
// dataset is 27M rows, so the layout matters — analyses scan one or two
// columns at a time (e.g. weekly arrival counts read only Start), and the
// columnar form keeps those scans cache-friendly and cheap to snapshot.
package store

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crowdscope/internal/model"
	"crowdscope/internal/par"
)

// Store is the columnar instance log. Rows are ordered by batch: all
// instances of a batch are contiguous, inside the one segment whose batch
// interval holds it, so the batch column is the batch index (BatchRange).
//
// A store carries its rows in up to two forms: the flat raw column
// arrays below, and per-segment lightweight encodings (see colenc.go).
// Stores built by Assemble hold both; stores loaded from a snapshot
// arrive encoded-only and materialize raw columns lazily, one
// column at a time, on first accessor use. The query engine scans the
// encoded form directly, so count-style queries over a loaded snapshot
// never pay for materialization.
type Store struct {
	// The raw column arrays (see arena.go); with lazy materialization any
	// of them may be shorter (nil) than the store is long.
	columns

	// rows is the authoritative row count.
	rows int

	// numBatches is the size of the batch-ID space, [0, numBatches).
	numBatches int

	// The segment layout and what is sealed in per segment: set by
	// Assemble, a snapshot load or a live view, filled on demand by
	// ZoneMaps and encodings (never the granule directories, which a
	// store read from disk derives as it loads).
	catalogue

	workerIndex map[uint32][]int32 // lazy posting lists, guarded by fill.mu
	ends        []int64            // lazy Start + Duration, guarded by fill.mu

	// partial marks a store backed by a dataset shard whose encodings are
	// loaded selectively (see dataset.go): only columns recorded in
	// loadedCols hold real data, and materializing any other column is a
	// programming error the fill path turns into a panic.
	partial    bool
	loadedCols colMask // guarded by fill.mu

	// gen is the store's generation: a process-monotonic identity drawn
	// from a global counter at construction, never reused within a
	// process. The query planner keys its plan cache on it — unlike the
	// store's address, a generation can never alias a freed store whose
	// memory was recycled. Live-store views share one generation per
	// sealed-segment set (see LiveStore.View), which is what lets hot
	// plans survive open-tail refreshes. Zero means "unversioned" (a
	// zero-value store that never passed through a constructor); the
	// planner refuses to cache those.
	gen uint64

	// fill guards the store's lazy fills: raw-column materialization,
	// zone maps, segment encodings, the worker posting lists, the end
	// times. It sits behind a pointer because the Store itself is
	// installed by value in ReadSnapshot (a contained mutex would outlaw
	// that); every constructor allocates one, and copies share it.
	// Zero-value stores (no constructor) fall back to a package-level
	// state — they can carry no encodings, so the fallback only ever
	// guards a lazy zone-map or (empty) posting-list or end fill.
	fill *fillState
}

// fillState carries the lazy-fill guards: mu for the shared slices
// (zones, encs, loadedCols, workerIndex, ends) and one mutex per raw
// column, so concurrent queries materializing different columns never
// serialize on each other.
// Lock ordering: a column mutex is never acquired while holding mu.
type fillState struct {
	mu   sync.Mutex
	cols [8]sync.Mutex // indexed by colIndex, i.e. colMask bit order
}

// zeroStoreFill serves stores built without a constructor.
var zeroStoreFill fillState

// fillRef returns the state guarding this store's lazy fills.
func (s *Store) fillRef() *fillState {
	if s.fill != nil {
		return s.fill
	}
	return &zeroStoreFill
}

// colIndex maps a single-column mask to its fillState.cols slot.
func colIndex(m colMask) int { return bits.TrailingZeros16(uint16(m)) }

// colMask names the raw columns a caller needs materialized.
type colMask uint16

const (
	colMaskBatch colMask = 1 << iota
	colMaskTaskType
	colMaskItem
	colMaskWorker
	colMaskStart
	colMaskDuration
	colMaskTrust
	colMaskAnswer

	colMaskAll colMask = colMaskBatch | colMaskTaskType | colMaskItem |
		colMaskWorker | colMaskStart | colMaskDuration | colMaskTrust | colMaskAnswer
)

// ColumnSet selects raw columns for selective loading and
// materialization; dataset shards (see dataset.go) read only the
// selected columns' bytes.
type ColumnSet = colMask

// Exported column selectors, one per store column.
const (
	ColSetBatch    ColumnSet = colMaskBatch
	ColSetTaskType ColumnSet = colMaskTaskType
	ColSetItem     ColumnSet = colMaskItem
	ColSetWorker   ColumnSet = colMaskWorker
	ColSetStart    ColumnSet = colMaskStart
	ColSetDuration ColumnSet = colMaskDuration // end − start, stored as SegmentEnc.EndOff
	ColSetTrust    ColumnSet = colMaskTrust
	ColSetAnswer   ColumnSet = colMaskAnswer
	ColSetAll      ColumnSet = colMaskAll

	// ColSetEnd is the set End is rebuilt from: Ends() reads Start and
	// Duration.
	ColSetEnd ColumnSet = ColSetStart | ColSetDuration
)

// ensure materializes the requested raw columns from the segment
// encodings if they are not yet resident. It is safe under concurrent
// readers — each column fills under its own guard, so queries
// materializing different columns proceed in parallel — and a no-op for
// raw-backed stores: those without encodings, and those whose encodings
// stop short of the layout (a live view with an open tail), whose rows
// past the run no encoding holds.
func (s *Store) ensure(mask colMask) {
	if s.rows == 0 {
		return
	}
	fs := s.fillRef()
	fs.mu.Lock()
	encs := s.encs
	var notLoaded colMask
	if s.partial {
		notLoaded = mask &^ s.loadedCols
	}
	fs.mu.Unlock()
	if notLoaded != 0 {
		panic(fmt.Sprintf("store: columns %#x not loaded in partial dataset shard; call Shard.EnsureColumns first", uint16(notLoaded)))
	}
	if len(encs) == 0 || len(encs) < len(s.segs) {
		return
	}
	for i := range colTable {
		if mask&colTable[i].mask != 0 {
			s.ensureCol(fs, &colTable[i], encs)
		}
	}
}

// ensureCol fills one raw column under its per-column guard.
func (s *Store) ensureCol(fs *fillState, col *colDef, encs []SegmentEnc) {
	guard := &fs.cols[colIndex(col.mask)]
	guard.Lock()
	defer guard.Unlock()
	if col.len(&s.columns) == s.rows {
		return
	}
	// Every reader of the column's length takes the guard, so nobody sees
	// the rows before they are filled.
	col.alloc(&s.columns, s.rows)
	par.EachShard(len(s.segs), 0, func(a, b int) {
		for i := a; i < b; i++ {
			if si := s.segs[i]; si.Rows() > 0 {
				col.decode(&encs[i], &s.columns, si.RowLo)
			}
		}
	})
}

// deriveDirectories installs the granule directories of a store read from
// disk, each derived from its segment's zone and the encodings of the
// columns in disk (deriveGranules); the store's zones must be complete.
func (s *Store) deriveDirectories(disk colMask) {
	cat := s.filled(0)
	grans := make([][]Granule, len(cat.segs))
	for i, si := range cat.segs {
		grans[i] = deriveGranules(si, &cat.zones[i], &cat.encs[i], disk)
	}
	fs := s.fillRef()
	fs.mu.Lock()
	s.grans = grans
	fs.mu.Unlock()
}

// SegmentEncodings returns the column encodings of a leading run of
// Segments(), in segment order: every segment of a store built in process
// or read strictly from disk, the sealed segments of a live view (its
// open tail has none), none of a repair-mode load. It never computes
// encodings; use encodings for that.
func (s *Store) SegmentEncodings() []SegmentEnc { return s.filled(0).encs }

// encodings returns one SegmentEnc per Segments() entry, in segment
// order, encoding on first use the raw rows of the segments past the
// store's run (a live view's open tail, every segment of a repair-mode
// load). Like ZoneMaps, the fill is safe under concurrent readers.
func (s *Store) encodings() []SegmentEnc { return s.filled(sealEnc).encs }

// filled returns the store's catalogue over Segments() with the wanted
// derived lists — zone maps, encodings — present for every segment,
// computing and installing what the store was built or loaded without:
// every zone map, the encodings past the leading run it carries. Unlike
// the store's other lazy indexes, the fill is safe under concurrent
// readers (e.g. parallel query.Exec calls on a shared store); any other
// mutation still requires exclusive access.
func (s *Store) filled(want sealPart) catalogue {
	fs := s.fillRef()
	fs.mu.Lock()
	cat := s.catalogue
	fs.mu.Unlock()
	n, run := len(cat.segs), len(cat.encs)
	if len(cat.zones) == n {
		want &^= sealZone
	}
	if run == n {
		want &^= sealEnc
	}
	if want == 0 {
		return cat
	}
	return s.fillCatalogue(cat, want)
}

// fillCatalogue is filled's slow path, apart so that the fast one
// allocates nothing: it computes the wanted lists cat lacks.
func (s *Store) fillCatalogue(cat catalogue, want sealPart) catalogue {
	n, run := len(cat.segs), len(cat.encs)
	fs := s.fillRef()
	// Compute outside the shared mutex: ensure takes the per-column
	// guards, which are never acquired while fs.mu is held.
	s.ensure(colMaskAll)
	fresh := catalogue{zones: make([]ZoneMap, n), encs: append(make([]SegmentEnc, 0, n), cat.encs...)[:n]}
	lo := 0
	if want&sealZone == 0 {
		lo = run
	}
	par.EachShard(n-lo, 0, func(a, b int) {
		for i := lo + a; i < lo+b; i++ {
			if i < run {
				fresh.zones[i] = s.seal(cat.segs[i], want&^sealEnc).zone
				continue
			}
			e := s.seal(cat.segs[i], want)
			fresh.zones[i], fresh.encs[i] = e.zone, e.enc
		}
	})
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// Where a concurrent fill won, keep its list; both are identical.
	if want&sealZone != 0 {
		if len(s.zones) != n {
			s.zones = fresh.zones
		}
		cat.zones = s.zones
	}
	if want&sealEnc != 0 {
		if len(s.encs) != n {
			s.encs = fresh.encs
		}
		cat.encs = s.encs
	}
	return cat
}

// Residency returns the set of raw columns currently materialized,
// without triggering materialization. The query planner uses it to choose
// between raw and encoded scan kernels; a stale answer only costs
// performance, never correctness. Each column's length is read under that
// column's fill guard, so the answer is consistent per column alongside
// concurrent materialization.
func (s *Store) Residency() ColumnSet {
	if s.rows == 0 {
		return ColSetAll
	}
	fs := s.fillRef()
	var r ColumnSet
	for i := range colTable {
		col := &colTable[i]
		fs.cols[colIndex(col.mask)].Lock()
		if col.len(&s.columns) == s.rows {
			r |= col.mask
		}
		fs.cols[colIndex(col.mask)].Unlock()
	}
	return r
}

// storeGen is the process-wide generation counter; 0 is reserved for
// unversioned zero-value stores.
var storeGen atomic.Uint64

// nextGeneration draws a fresh, never-reused store generation. It is
// exported for callers that version store-shaped snapshots of their own
// (LiveStore draws one per sealed-segment set).
func nextGeneration() uint64 { return storeGen.Add(1) }

// Generation returns the store's construction generation: non-zero and
// process-unique for stores built by a constructor (New, Assemble, a
// snapshot load), zero for zero-value stores. Two different generations
// mean two different stores; live-store views deliberately share one
// generation while only their open tail differs.
func (s *Store) Generation() uint64 { return s.gen }

// New returns an empty store sized for the given number of batches.
func New(numBatches int) *Store {
	return &Store{numBatches: numBatches, fill: &fillState{}, gen: nextGeneration()}
}

// Len returns the number of instance rows.
func (s *Store) Len() int { return s.rows }

// NumBatches returns the size of the batch-ID space: every batch ID is
// below it.
func (s *Store) NumBatches() int { return s.numBatches }

// Row materializes row i as an Instance.
func (s *Store) Row(i int) model.Instance {
	s.ensure(colMaskAll)
	return s.row(i)
}

// Column accessors return the backing arrays; callers must not modify
// them. They exist because scans over one column are the hot path of every
// experiment. On an encoded-only store (loaded from a compressed
// snapshot) the first access to a column materializes it — that column
// alone — from the segment encodings.

// Batches returns the batch-ID column.
func (s *Store) Batches() []uint32 { s.ensure(colMaskBatch); return s.batch }

// TaskTypes returns the task-type column.
func (s *Store) TaskTypes() []uint32 { s.ensure(colMaskTaskType); return s.taskType }

// Items returns the item-ID column.
func (s *Store) Items() []uint32 { s.ensure(colMaskItem); return s.item }

// Workers returns the worker-ID column.
func (s *Store) Workers() []uint32 { s.ensure(colMaskWorker); return s.worker }

// Starts returns the start-time column (unix seconds).
func (s *Store) Starts() []int64 { s.ensure(colMaskStart); return s.start }

// Durations returns the task-time column, end − start (seconds): the
// column the store keeps in place of End.
func (s *Store) Durations() []int64 { s.ensure(colMaskDuration); return s.dur }

// Ends returns the end-time column (unix seconds), Start + Durations,
// derived on first use and kept, as the posting lists are.
func (s *Store) Ends() []int64 {
	s.ensure(ColSetEnd)
	fs := s.fillRef()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if s.ends == nil {
		s.ends = make([]int64, s.rows)
		for i := range s.ends {
			s.ends[i] = s.start[i] + s.dur[i]
		}
	}
	return s.ends
}

// Trusts returns the trust-score column.
func (s *Store) Trusts() []float32 { s.ensure(colMaskTrust); return s.trust }

// Answers returns the answer-token column.
func (s *Store) Answers() []uint32 { s.ensure(colMaskAnswer); return s.answer }

// BatchRange returns the [lo,hi) row range of a batch, (0, 0) for a batch
// without rows. The rows are found in the batch column of the segment
// whose interval holds the batch: by binary search over its runs where
// the segment's encoding stores them, over its raw rows otherwise.
func (s *Store) BatchRange(batchID uint32) (lo, hi int) {
	segs := s.segs
	k, _ := slices.BinarySearchFunc(segs, batchID, func(si SegmentInfo, b uint32) int {
		if si.BatchHi <= b {
			return -1
		}
		return 1
	})
	if k == len(segs) || batchID < segs[k].BatchLo || segs[k].Rows() == 0 {
		return 0, 0
	}
	runs, raw := s.segBatches(k)
	if runs != nil {
		r, found := slices.BinarySearch(runs.RunVals, batchID)
		if !found {
			return 0, 0
		}
		if r > 0 {
			lo = int(runs.RunEnds[r-1])
		}
		hi = int(runs.RunEnds[r])
	} else {
		lo, _ = slices.BinarySearch(raw, batchID)
		hi, _ = slices.BinarySearch(raw, batchID+1) // batchID < BatchHi: no wrap
		if lo >= hi {
			return 0, 0
		}
	}
	return segs[k].RowLo + lo, segs[k].RowLo + hi
}

// SegmentBatches calls fn for every batch with rows in segment k of
// Segments(), in row order, with the batch's store row range — walking
// the segment's batch runs once, where BatchRange searches per batch.
// Rows whose batch lies outside the segment's interval, which Validate
// refuses, are skipped.
func (s *Store) SegmentBatches(k int, fn func(batchID uint32, lo, hi int)) {
	si := s.segs[k]
	emit := func(b uint32, lo, hi int) {
		if b >= si.BatchLo && b < si.BatchHi {
			fn(b, si.RowLo+lo, si.RowLo+hi)
		}
	}
	runs, raw := s.segBatches(k)
	if runs != nil {
		lo := 0
		for r, b := range runs.RunVals {
			emit(b, lo, int(runs.RunEnds[r]))
			lo = int(runs.RunEnds[r])
		}
		return
	}
	lo := 0
	for i, b := range raw {
		if i+1 == len(raw) || raw[i+1] != b {
			emit(b, lo, i+1)
			lo = i + 1
		}
	}
}

// segBatches returns segment k's batch column: its runs where the
// segment's encoding is run-length coded, its raw rows otherwise.
func (s *Store) segBatches(k int) (runs *EncodedU32, raw []uint32) {
	if encs := s.filled(0).encs; k < len(encs) && encs[k].Batch.Code == CodeRLE {
		return &encs[k].Batch, nil
	}
	si := s.segs[k]
	return nil, s.Batches()[si.RowLo:si.RowHi]
}

// WorkerRows returns the rows of one worker, building the posting-list
// index on first use.
func (s *Store) WorkerRows(workerID uint32) []int32 {
	return s.postings()[workerID]
}

// EachWorker iterates (workerID, rows) pairs in ascending worker order.
func (s *Store) EachWorker(fn func(workerID uint32, rows []int32)) {
	idx := s.postings()
	ids := make([]uint32, 0, len(idx))
	for id := range idx {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		fn(id, idx[id])
	}
}

// postings returns the posting-list index, built once under the fill
// mutex so concurrent first readers neither race nor build it twice. The
// worker column is materialized before the mutex is taken: ensure takes
// it too.
func (s *Store) postings() map[uint32][]int32 {
	s.ensure(colMaskWorker)
	fs := s.fillRef()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if s.workerIndex == nil {
		s.workerIndex = s.buildWorkerIndex()
	}
	return s.workerIndex
}

// workerIndexParallelMin is the row count above which the posting-list
// build fans out across row chunks; below it a single pass is faster than
// spawning goroutines and merging maps.
const workerIndexParallelMin = 1 << 16

// buildWorkerIndex builds the posting lists from the materialized worker
// column.
func (s *Store) buildWorkerIndex() map[uint32][]int32 {
	if s.Len() < workerIndexParallelMin {
		idx := make(map[uint32][]int32)
		for i, w := range s.worker {
			idx[w] = append(idx[w], int32(i))
		}
		return idx
	}
	// Each chunk of rows builds its own postings; merging them in chunk
	// order preserves the ascending row order the analyses rely on, for
	// any chunk count.
	n, chunks := s.Len(), runtime.GOMAXPROCS(0)
	parts := make([]map[uint32][]int32, chunks)
	par.EachShard(chunks, chunks, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			m := make(map[uint32][]int32)
			for i := c * n / chunks; i < (c+1)*n/chunks; i++ {
				m[s.worker[i]] = append(m[s.worker[i]], int32(i))
			}
			parts[c] = m
		}
	})
	idx := make(map[uint32][]int32)
	for _, part := range parts {
		for w, rows := range part {
			idx[w] = append(idx[w], rows...)
		}
	}
	return idx
}

// Validate checks the structural invariants: segments partition the rows
// and hold ascending batch intervals, each segment's batch column is
// non-decreasing inside its interval (so every batch's rows are
// contiguous), and every duration is non-negative with start + duration
// not past MaxInt64. It inspects every column, so an encoded-only store
// materializes first.
func (s *Store) Validate() error {
	s.ensure(colMaskAll)
	n := s.rows
	for i := range colTable {
		if colTable[i].len(&s.columns) != n {
			return errors.New("store: column length mismatch")
		}
	}
	for i := 0; i < n; i++ {
		if d := s.dur[i]; d < 0 || s.start[i]+d < s.start[i] {
			return fmt.Errorf("store: row %d ends before it starts or past MaxInt64 (start %d, duration %d)", i, s.start[i], d)
		}
	}
	if n > 0 && len(s.segs) == 0 {
		return fmt.Errorf("store: %d rows without a segment layout", n)
	}
	rowOff, batchOff := 0, uint32(0)
	for k, si := range s.segs {
		if si.RowLo != rowOff || si.RowHi < si.RowLo {
			return fmt.Errorf("store: segment %d rows [%d,%d) not contiguous at offset %d", k, si.RowLo, si.RowHi, rowOff)
		}
		if si.BatchLo < batchOff || si.BatchHi < si.BatchLo || int(si.BatchHi) > s.numBatches {
			return fmt.Errorf("store: segment %d batch interval [%d,%d) invalid", k, si.BatchLo, si.BatchHi)
		}
		prev := si.BatchLo
		for i := si.RowLo; i < si.RowHi; i++ {
			if b := s.batch[i]; b < prev || b >= si.BatchHi {
				return fmt.Errorf("store: row %d has batch %d, outside [%d,%d) of segment %d or below its predecessor", i, b, prev, si.BatchHi, k)
			}
			prev = s.batch[i]
		}
		rowOff, batchOff = si.RowHi, si.BatchHi
	}
	if rowOff != n {
		return fmt.Errorf("store: segments cover %d of %d rows", rowOff, n)
	}
	// What is sealed in must pair with the segment layout it describes.
	// Read under the fill mutex: Validate may run alongside queries whose
	// first ZoneMaps call fills the cache.
	cat := s.filled(0)
	segs := cat.segs
	if len(cat.zones) > 0 && len(cat.zones) != len(segs) {
		return fmt.Errorf("store: %d zone maps for %d segments", len(cat.zones), len(segs))
	}
	for i, z := range cat.zones {
		if z.Rows != segs[i].Rows() {
			return fmt.Errorf("store: zone map %d covers %d rows, segment has %d", i, z.Rows, segs[i].Rows())
		}
	}
	// A granule directory tiles its segment: one granule per GranuleRows
	// rows, the last one holding the remainder.
	if len(cat.grans) > len(segs) {
		return fmt.Errorf("store: %d granule directories for %d segments", len(cat.grans), len(segs))
	}
	for i, dir := range cat.grans {
		left := segs[i].Rows()
		for g := range dir {
			if dir[g].Rows != min(left, GranuleRows) || left == 0 {
				return fmt.Errorf("store: segment %d granule %d covers %d rows with %d left", i, g, dir[g].Rows, left)
			}
			left -= dir[g].Rows
		}
		if left != 0 {
			return fmt.Errorf("store: segment %d directory leaves %d rows uncovered", i, left)
		}
	}
	// Encodings cover a leading run of segments, each satisfying its own
	// structural invariants.
	if len(cat.encs) > len(segs) {
		return fmt.Errorf("store: %d segment encodings for %d segments", len(cat.encs), len(segs))
	}
	for i := range cat.encs {
		if err := cat.encs[i].validate(segs[i].Rows()); err != nil {
			return fmt.Errorf("store: segment %d encoding: %v", i, err)
		}
	}
	return nil
}
