package store

import (
	"fmt"

	"crowdscope/internal/model"
)

// A Segment is an immutable, sealed run of instance rows covering a
// half-open interval of batch IDs. Segments are the unit of parallel
// ingest: each generation shard renders its batches into one Builder,
// seals it, and Assemble merges the sealed segments — in canonical batch
// order — into the flat columnar Store every analysis scans.
type Segment struct {
	columns

	// ranges[b-info.BatchLo] is the segment-local [lo,hi) row range of
	// batch b; covered batches with no rows have lo == hi.
	ranges []rowRange

	// The segment's catalogue entry. info carries the batch interval from
	// the start; Seal completes it with the row span [0, Len), the granule
	// directory, the zone map and the column encodings, which Assemble
	// carries into the store.
	sealed
}

// Len returns the number of rows in the segment.
func (g *Segment) Len() int { return g.len() }

// Row materializes segment-local row i as an Instance.
func (g *Segment) Row(i int) model.Instance { return g.row(i) }

// Zone returns the segment's zone map (computed at Seal).
func (g *Segment) Zone() ZoneMap { return g.zone }

// A Builder accumulates rows for one shard of batches and seals them into
// an immutable Segment. Builders are not safe for concurrent use; the
// parallelism model is one builder per goroutine.
type Builder struct {
	seg    *Segment
	cur    int // index into seg.ranges of the open batch, -1 when none
	sealed bool
}

// NewBuilder returns a builder for the batch-ID interval [batchLo, batchHi).
func NewBuilder(batchLo, batchHi uint32) *Builder {
	if batchHi < batchLo {
		panic(fmt.Sprintf("store: builder interval [%d,%d) inverted", batchLo, batchHi))
	}
	g := &Segment{ranges: make([]rowRange, batchHi-batchLo)}
	g.info = SegmentInfo{BatchLo: batchLo, BatchHi: batchHi}
	return &Builder{seg: g, cur: -1}
}

// BeginBatch marks the start of batchID's rows; all Append calls until the
// next BeginBatch belong to it. The batch must lie inside the builder's
// interval.
func (b *Builder) BeginBatch(batchID uint32) {
	if b.sealed {
		panic("store: BeginBatch on sealed builder")
	}
	if si := b.seg.info; batchID < si.BatchLo || batchID >= si.BatchHi {
		panic(fmt.Sprintf("store: batch %d outside builder interval [%d,%d)", batchID, si.BatchLo, si.BatchHi))
	}
	n := int32(b.seg.len())
	b.cur = int(batchID - b.seg.info.BatchLo)
	b.seg.ranges[b.cur] = rowRange{Lo: n, Hi: n}
}

// Append adds one instance row to the currently open batch.
func (b *Builder) Append(in model.Instance) {
	if b.sealed {
		panic("store: Append on sealed builder")
	}
	if b.cur < 0 {
		panic("store: Append without BeginBatch")
	}
	b.seg.push(in)
	b.seg.ranges[b.cur].Hi = int32(b.seg.len())
}

// Len returns the number of rows appended so far.
func (b *Builder) Len() int { return b.seg.len() }

// Seal freezes the builder's rows into an immutable Segment, computing
// its granule directory, zone map and column encodings. The builder must
// not be used afterwards.
func (b *Builder) Seal() *Segment {
	if b.sealed {
		panic("store: Seal on sealed builder")
	}
	b.sealed = true
	g := b.seg
	g.info.RowHi = g.len()
	g.sealed = g.seal(g.info, sealAll)
	return g
}

// SegmentInfo describes one sealed segment's position inside an assembled
// store: its row span and the batch-ID interval it covers.
type SegmentInfo struct {
	RowLo, RowHi     int    // [RowLo, RowHi) rows
	BatchLo, BatchHi uint32 // [BatchLo, BatchHi) batch IDs
}

// Rows returns the number of rows in the segment.
func (si SegmentInfo) Rows() int { return si.RowHi - si.RowLo }

// Assemble merges sealed segments into a Store with numBatches batches.
// Segments must cover ascending, non-overlapping batch intervals; batches
// not covered by any segment stay empty. Row order in the result is the
// canonical batch-contiguous order: all rows of segment k precede all rows
// of segment k+1, and within a segment rows keep their builder order.
// Column data is copied into flat arrays (see concat), so the returned
// store scans exactly like a monolithic one.
func Assemble(numBatches int, segs []*Segment) (*Store, error) {
	prevHi := uint32(0)
	parts := make([]part, len(segs))
	for i, g := range segs {
		if g == nil {
			return nil, fmt.Errorf("store: segment %d is nil", i)
		}
		if g.info.BatchLo < prevHi && i > 0 {
			return nil, fmt.Errorf("store: segment %d batch interval [%d,%d) overlaps or precedes previous (hi %d)",
				i, g.info.BatchLo, g.info.BatchHi, prevHi)
		}
		if int(g.info.BatchHi) > numBatches {
			return nil, fmt.Errorf("store: segment %d batch interval [%d,%d) exceeds %d batches",
				i, g.info.BatchLo, g.info.BatchHi, numBatches)
		}
		prevHi = g.info.BatchHi
		parts[i] = part{cols: &g.columns, rows: g.len(), batchTable: batchTable{batchLo: g.info.BatchLo, ranges: g.ranges}}
		parts[i].cat.add(g.sealed)
	}
	return concat(numBatches, parts), nil
}

// Segments returns the segment layout of the store.
func (s *Store) Segments() []SegmentInfo { return s.segs }
