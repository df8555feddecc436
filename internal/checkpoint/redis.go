package checkpoint

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"heron/internal/core"
	"heron/internal/extsvc/redissim"
)

func init() {
	Register("redis", func() Backend { return &redisBackend{} })
}

// redisBackend stores snapshots as blobs in the simulated Redis server of
// its core.World and StateRoot, shared by every container session on the
// same World and StateRoot, paying the RESP encode/parse cost per
// operation like the ETL workload does.
//
// Keys: ckpt/<topology>/<id>/<task> for snapshots, ckpt/<topology>/latest
// for the commit record.
type redisBackend struct {
	mu sync.Mutex // serializes the client (shared scratch buffer)
	cl *redissim.Client
}

func (r *redisBackend) Initialize(cfg *core.Config) error {
	srv, err := core.Shared(cfg.World, "redis", cfg.StateRoot, func() *redissim.Server { return redissim.NewServer(8) })
	if err != nil {
		return err
	}
	r.cl = redissim.NewClient(srv)
	return nil
}

func (r *redisBackend) checkInit() error {
	if r.cl == nil {
		return fmt.Errorf("checkpoint: redis backend not initialized")
	}
	return nil
}

func snapKey(topology string, id int64, task int32) string {
	return "ckpt/" + topology + "/" + strconv.FormatInt(id, 10) + "/" + strconv.FormatInt(int64(task), 10)
}

func latestKey(topology string) string { return "ckpt/" + topology + "/latest" }

func (r *redisBackend) Save(topology string, checkpointID int64, task int32, data []byte) error {
	if err := r.checkInit(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cl.SetBlob(snapKey(topology, checkpointID, task), data)
}

func (r *redisBackend) Load(topology string, checkpointID int64, task int32) ([]byte, error) {
	if err := r.checkInit(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok, err := r.cl.GetBlob(snapKey(topology, checkpointID, task))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, core.ErrNotFound
	}
	return data, nil
}

func (r *redisBackend) Commit(topology string, checkpointID int64) error {
	if err := r.checkInit(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	latest, err := r.latestLocked(topology)
	if err != nil {
		return err
	}
	if checkpointID > latest {
		if err := r.cl.SetBlob(latestKey(topology), []byte(strconv.FormatInt(checkpointID, 10))); err != nil {
			return err
		}
		latest = checkpointID
	}
	// Retire snapshots older than the newest commit; only the latest
	// committed checkpoint is ever restored.
	prefix := "ckpt/" + topology + "/"
	keys, err := r.cl.BlobKeys(prefix)
	if err != nil {
		return err
	}
	retired := map[int64]bool{}
	for _, k := range keys {
		idStr, _, isSnap := strings.Cut(strings.TrimPrefix(k, prefix), "/")
		id, err := strconv.ParseInt(idStr, 10, 64)
		if !isSnap || err != nil || id >= latest || retired[id] {
			continue
		}
		retired[id] = true
		if err := r.cl.DeleteBlobs(prefix + idStr + "/"); err != nil {
			return err
		}
	}
	return nil
}

func (r *redisBackend) latestLocked(topology string) (int64, error) {
	raw, ok, err := r.cl.GetBlob(latestKey(topology))
	if err != nil || !ok {
		return 0, err
	}
	id, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: corrupt latest record: %w", err)
	}
	return id, nil
}

func (r *redisBackend) LatestCommitted(topology string) (int64, error) {
	if err := r.checkInit(); err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latestLocked(topology)
}

func (r *redisBackend) Dispose(topology string) error {
	if err := r.checkInit(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cl.DeleteBlobs("ckpt/" + topology + "/")
}

func (r *redisBackend) Close() error {
	r.cl = nil
	return nil
}
