package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ResultStore is the persistence seam of the daemon: completed run results
// land in Put, /v1/runs/{id} reads through Get, and the drain path flushes
// the request log (one flat record per accepted request, manifest-style)
// through PutRequestLog. The interface is deliberately small so alternative
// backends (object store, database) slot in without touching the service
// layer; the in-tree implementations are a filesystem store and an in-memory
// store for tests.
type ResultStore interface {
	// Put persists one completed run result under its ID. Results are
	// immutable once stored: a duplicate ID is an error.
	Put(res *RunResult) error
	// Get returns the stored result, or an error satisfying IsNotFound.
	Get(id string) (*RunResult, error)
	// List returns all stored run IDs, sorted.
	List() ([]string, error)
	// PutRequestLog atomically replaces the request log, the drain-time
	// flush of every request the daemon accepted this lifetime.
	PutRequestLog(recs []RequestRecord) error
}

// notFoundError marks a missing run ID so HTTP handlers can map it to 404.
type notFoundError struct{ id string }

func (e *notFoundError) Error() string { return fmt.Sprintf("serve: no result for run %q", e.id) }

// IsNotFound reports whether err is a ResultStore miss.
func IsNotFound(err error) bool {
	var nf *notFoundError
	return errors.As(err, &nf)
}

// FSStore persists results as JSON files: <dir>/runs/<id>.json per result
// and <dir>/requests.json for the drained request log.
type FSStore struct {
	dir string
	mu  sync.Mutex
}

// NewFSStore creates the store rooted at dir (created if missing).
func NewFSStore(dir string) (*FSStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, err
	}
	return &FSStore{dir: dir}, nil
}

func (s *FSStore) path(id string) string {
	return filepath.Join(s.dir, "runs", id+".json")
}

func (s *FSStore) Put(res *RunResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.path(res.ID)
	if _, err := os.Stat(p); err == nil {
		return fmt.Errorf("serve: result %q already stored", res.ID)
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	// Write-then-rename so a concurrent Get never sees a torn file.
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

func (s *FSStore) Get(id string) (*RunResult, error) {
	blob, err := os.ReadFile(s.path(id))
	if os.IsNotExist(err) {
		return nil, &notFoundError{id: id}
	}
	if err != nil {
		return nil, err
	}
	var res RunResult
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (s *FSStore) List() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "runs"))
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if n := e.Name(); filepath.Ext(n) == ".json" {
			ids = append(ids, n[:len(n)-len(".json")])
		}
	}
	sort.Strings(ids)
	return ids, nil
}

func (s *FSStore) PutRequestLog(recs []RequestRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	p := filepath.Join(s.dir, "requests.json")
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

// MemStore is the in-memory ResultStore used by tests and by daemons run
// without an output directory.
type MemStore struct {
	mu      sync.Mutex
	results map[string]*RunResult
	log     []RequestRecord
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{results: map[string]*RunResult{}}
}

func (s *MemStore) Put(res *RunResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.results[res.ID]; dup {
		return fmt.Errorf("serve: result %q already stored", res.ID)
	}
	s.results[res.ID] = res
	return nil
}

func (s *MemStore) Get(id string) (*RunResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.results[id]
	if !ok {
		return nil, &notFoundError{id: id}
	}
	return res, nil
}

func (s *MemStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.results))
	for id := range s.results {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

func (s *MemStore) PutRequestLog(recs []RequestRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append([]RequestRecord(nil), recs...)
	return nil
}
