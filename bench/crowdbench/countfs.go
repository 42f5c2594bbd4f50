package main

import (
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdscope/internal/vfs"
)

// countingFS is the vfs.FS the live store runs on in the serve
// workloads: the real filesystem, counting what the durability layer
// writes and how long it waits in fsync. It is the LiveConfig.FS seam, so
// nothing under internal/ knows it is there.
type countingFS struct {
	vfs.FS

	writeCalls atomic.Int64
	writeBytes atomic.Int64
	syncs      atomic.Int64 // file and directory syncs
	ckptFiles  atomic.Int64 // checkpoint snapshots created (ckpt-*.crow.tmp)
	ckptBytes  atomic.Int64 // bytes written into them

	mu        sync.Mutex
	syncTimes samples
}

func newCountingFS() *countingFS { return &countingFS{FS: vfs.OS{}} }

func isCheckpoint(name string) bool {
	return strings.HasPrefix(filepath.Base(name), "ckpt-")
}

func (c *countingFS) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	ckpt := isCheckpoint(name)
	if ckpt {
		c.ckptFiles.Add(1)
	}
	return &countingFile{File: f, fs: c, ckpt: ckpt}, nil
}

func (c *countingFS) OpenAppend(name string) (vfs.File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	start := time.Now()
	err := c.FS.SyncDir(dir)
	c.synced(time.Since(start))
	return err
}

func (c *countingFS) synced(d time.Duration) {
	c.syncs.Add(1)
	c.mu.Lock()
	c.syncTimes = append(c.syncTimes, d)
	c.mu.Unlock()
}

// fsCounts is a copy of the counters, for before/after deltas.
type fsCounts struct {
	writeCalls, writeBytes, syncs, ckptFiles, ckptBytes int64
	syncTimes                                           samples
}

func (c *countingFS) snapshot() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounts{
		writeCalls: c.writeCalls.Load(), writeBytes: c.writeBytes.Load(),
		syncs: c.syncs.Load(), ckptFiles: c.ckptFiles.Load(), ckptBytes: c.ckptBytes.Load(),
		syncTimes: append(samples(nil), c.syncTimes...),
	}
}

// since returns the activity between an earlier snapshot and this one.
func (a fsCounts) since(b fsCounts) fsCounts {
	return fsCounts{
		writeCalls: a.writeCalls - b.writeCalls, writeBytes: a.writeBytes - b.writeBytes,
		syncs: a.syncs - b.syncs, ckptFiles: a.ckptFiles - b.ckptFiles, ckptBytes: a.ckptBytes - b.ckptBytes,
		syncTimes: a.syncTimes[len(b.syncTimes):],
	}
}

type countingFile struct {
	vfs.File
	fs   *countingFS
	ckpt bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeCalls.Add(1)
	f.fs.writeBytes.Add(int64(n))
	if f.ckpt {
		f.fs.ckptBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.synced(time.Since(start))
	return err
}

// countingReaderAt counts the reads a dataset query issues against one
// shard file; it is what the store.OpenShard seam hands out in the
// cold-dataset workload.
type countingReaderAt struct {
	ra    io.ReaderAt
	calls *atomic.Int64
	bytes *atomic.Int64
}

func (c countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.ra.ReadAt(p, off)
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingReaderAt) Close() error {
	if cl, ok := c.ra.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
