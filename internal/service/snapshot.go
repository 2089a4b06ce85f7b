package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Warm restarts: a restarted lbserve process with a cold plan cache
// turns every request into a miss at once and stampedes the planner —
// exactly the overload the admission controller then has to shed. The
// snapshot avoids the stampede instead of surviving it: SIGHUP (or any
// graceful shutdown with -snapshot configured) serialises the cache to
// disk, and the next process restores it before taking traffic.
//
// Plans are deterministic facts about their canonical keys, so a
// snapshot cannot go stale — a restored entry is byte-identical to
// what recomputation would produce. The only freshness concern is LRU
// recency, which the snapshot preserves by writing entries oldest
// first so restoring replays them into the same recency order.

// cacheSnapshotVersion guards the on-disk format; a reader rejects
// other versions rather than guessing. Version 2 carries a CRC-32 of
// the entries.
const cacheSnapshotVersion = 2

// ErrSnapshotChecksum means a snapshot's entries do not match the
// CRC-32 its envelope records: the file changed after it was written,
// and none of it is restored.
var ErrSnapshotChecksum = errors.New("service: cache snapshot checksum mismatch")

// CacheSnapshot is the on-disk envelope of a plan-cache snapshot.
type CacheSnapshot struct {
	Version int       `json:"version"`
	SavedAt time.Time `json:"saved_at"`
	// CRC32 is the IEEE CRC-32 of Entries exactly as encoded in the file.
	CRC32 uint32 `json:"crc32"`
	// Entries is the JSON array of CacheSnapshotEntry values, least
	// recently used first, so restoring in order reproduces the recency
	// order.
	Entries json.RawMessage `json:"entries"`
}

// CacheSnapshotEntry is one cached plan keyed by its canonical request
// key.
type CacheSnapshotEntry struct {
	Key  string `json:"key"`
	Plan *Plan  `json:"plan"`
}

// entries collects the cache's contents, least recently used first
// within each shard. Nil-safe (a disabled cache snapshots empty).
func (c *planCache) entries() []CacheSnapshotEntry {
	if c == nil {
		return nil
	}
	var out []CacheSnapshotEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			out = append(out, CacheSnapshotEntry{Key: e.key, Plan: e.plan})
		}
		s.mu.Unlock()
	}
	return out
}

// WriteCacheSnapshot serialises the plan cache to w.
func (s *Server) WriteCacheSnapshot(w io.Writer) error {
	entries := s.cache.entries()
	raw, err := json.Marshal(entries)
	if err == nil {
		err = json.NewEncoder(w).Encode(CacheSnapshot{
			Version: cacheSnapshotVersion,
			SavedAt: time.Now(),
			CRC32:   crc32.ChecksumIEEE(raw),
			Entries: raw,
		})
	}
	if err != nil {
		return fmt.Errorf("service: encoding cache snapshot: %w", err)
	}
	s.reg.Counter(mCacheSnapshotted).Add(int64(len(entries)))
	return nil
}

// SaveCacheSnapshot writes the snapshot to path atomically: it syncs a
// temp file, renames it into place and syncs the directory, so after a
// crash path holds either the previous snapshot or the complete new
// one, never a truncated file for the next process to choke on.
func (s *Server) SaveCacheSnapshot(path string) (int, error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.CreateTemp(dir, ".cache-snapshot-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	err = s.WriteCacheSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	n := s.cache.Len()
	s.reg.Emit("service.cache_snapshot", fmt.Sprintf("%d plans → %s", n, path))
	return n, nil
}

// syncDir flushes dir's entries, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// RestoreCacheSnapshot loads a snapshot from r into the plan cache,
// returning how many plans were restored. Entries with an empty key or
// nil plan are skipped rather than trusted; a version mismatch, a
// checksum mismatch (ErrSnapshotChecksum) or a decode error rejects the
// whole snapshot and restores nothing.
func (s *Server) RestoreCacheSnapshot(r io.Reader) (int, error) {
	var sn CacheSnapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		return 0, fmt.Errorf("service: decoding cache snapshot: %w", err)
	}
	if sn.Version != cacheSnapshotVersion {
		return 0, fmt.Errorf("service: cache snapshot version %d, want %d", sn.Version, cacheSnapshotVersion)
	}
	if sum := crc32.ChecksumIEEE(sn.Entries); sum != sn.CRC32 {
		return 0, fmt.Errorf("%w: entries hash to %08x, envelope records %08x", ErrSnapshotChecksum, sum, sn.CRC32)
	}
	var entries []CacheSnapshotEntry
	if err := json.Unmarshal(sn.Entries, &entries); err != nil {
		return 0, fmt.Errorf("service: decoding cache snapshot entries: %w", err)
	}
	restored := 0
	for _, e := range entries {
		if e.Key == "" || e.Plan == nil {
			continue
		}
		s.cache.Put(e.Key, e.Plan)
		restored++
	}
	s.reg.Counter(mCacheRestored).Add(int64(restored))
	s.restoredVersion.Store(int64(sn.Version))
	s.restoredEntries.Store(int64(restored))
	s.reg.Emit("service.cache_restore", fmt.Sprintf("%d plans restored", restored))
	return restored, nil
}

// LoadCacheSnapshot restores the cache from the snapshot file at path.
// A missing file is not an error (0, nil): the first boot of a fresh
// deployment has nothing to restore.
func (s *Server) LoadCacheSnapshot(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return s.RestoreCacheSnapshot(f)
}
