package bie

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rbcflow/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the FuzzLoadPlan seed corpus")

// tinyRows are the blocks of a hand-made full plan (no surface behind it):
// 2 patches of 2×2 nodes, one or two blocks per node.
func tinyRows() [][]CorrBlock {
	const nq, nodes = 4, 8
	rows := make([][]CorrBlock, nodes)
	v := 0.0
	for g := range rows {
		for pid := 0; pid <= g%2; pid++ {
			m := make([]float64, symPlanes*nq)
			for i := range m {
				v += 0.37
				m[i] = v * float64(1-2*(i%2))
			}
			rows[g] = append(rows[g], CorrBlock{Pid: pid, M: m})
		}
	}
	return rows
}

func tinyPlan() *QuadPlan { return planFromRows(2, "tiny", tinyRows()) }

func planBytes(t testing.TB, p *QuadPlan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writePlan(&buf, p); err != nil {
		t.Fatalf("writePlan: %v", err)
	}
	return buf.Bytes()
}

// planV1 is the shape the version-1 cache gob-encoded.
type planV1 struct {
	Version     int
	Fingerprint string
	QuadNodes   int
	NumNodes    int
	Partial     bool
	Corr        [][]CorrBlock
}

func v1GobBytes(t testing.TB) []byte {
	t.Helper()
	rows := tinyRows()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&planV1{Version: 1, Fingerprint: "tiny", QuadNodes: 2, NumNodes: len(rows), Corr: rows}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Header field offsets of the plan file (see plan.go).
const (
	offVersion = len(planMagic)
	offNodes   = offVersion + 8
	offBlocks  = offNodes + 8
)

// malformedPlans are files LoadPlan must refuse, by name.
func malformedPlans(t testing.TB) map[string][]byte {
	good := planBytes(t, tinyPlan())
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	le := binary.LittleEndian
	counts := planHeaderLen + len("tiny")
	return map[string][]byte{
		"truncated":            good[:len(good)-5],
		"truncated-header":     good[:planHeaderLen-3],
		"wrong-magic":          edit(func(b []byte) { b[0] ^= 0x20 }),
		"v1-gob":               v1GobBytes(t),
		"version-1":            edit(func(b []byte) { le.PutUint32(b[offVersion:], 1) }),
		"block-count-overflow": edit(func(b []byte) { le.PutUint64(b[offBlocks:], 1<<61) }),
		"node-count-overflow":  edit(func(b []byte) { le.PutUint64(b[offNodes:], 1<<62) }),
		"node-block-overflow":  edit(func(b []byte) { le.PutUint32(b[counts:], 1<<31) }),
		"node-without-blocks":  edit(func(b []byte) { le.PutUint32(b[counts:], 0); le.PutUint32(b[counts+4:], 3) }),
		"patch-out-of-range":   edit(func(b []byte) { le.PutUint32(b[counts+4*8:], 2) }),
		"trailing-bytes":       append(bytes.Clone(good), 0),
		"empty":                {},
	}
}

func seedPath(name string) string {
	return filepath.Join("testdata", "fuzz", "FuzzLoadPlan", name)
}

// The corpus file encoding of one []byte argument (testing.F's format).
func encodeSeed(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
}

// TestLoadPlanRejectsMalformed: every damaged file is an error wrapping
// ErrPlanFormat — no panic, and no allocation sized by a count the file
// declares but cannot back. The same files (and one good plan) are the
// committed FuzzLoadPlan seeds; -update-golden rewrites them.
func TestLoadPlanRejectsMalformed(t *testing.T) {
	seeds := malformedPlans(t)
	var ms0, ms1 runtime.MemStats
	for name, b := range seeds {
		runtime.ReadMemStats(&ms0)
		p, err := readPlan(bytes.NewReader(b), int64(len(b)))
		runtime.ReadMemStats(&ms1)
		if err == nil || p != nil || !errors.Is(err, ErrPlanFormat) {
			t.Errorf("%s: plan %v, err %v; want an ErrPlanFormat", name, p != nil, err)
		}
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: a %d-byte file made the reader allocate %d bytes", name, len(b), grew)
		}
	}
	// Through the path layer the sentinel survives the wrapping.
	path := filepath.Join(t.TempDir(), "old.qplan")
	if err := os.WriteFile(path, seeds["v1-gob"], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(path); !errors.Is(err, ErrPlanFormat) {
		t.Errorf("LoadPlan of a v1 gob file: %v, want an ErrPlanFormat", err)
	}

	seeds["valid"] = planBytes(t, tinyPlan())
	for name, b := range seeds {
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(seedPath(name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seedPath(name), encodeSeed(b), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(seedPath(name)); err != nil || !bytes.Equal(got, encodeSeed(b)) {
			t.Errorf("fuzz seed %s is stale (err %v): go test ./internal/bie -run TestLoadPlanRejectsMalformed -update-golden", name, err)
		}
	}
}

// TestSavePlanRefusesWhatLoadWould: a plan the reader would reject is not
// written — wrong block length, a patch id outside the surface, a node
// without blocks.
func TestSavePlanRefusesWhatLoadWould(t *testing.T) {
	for name, damage := range map[string]func(p *QuadPlan){
		"short block": func(p *QuadPlan) { p.groups.m = p.groups.m[:len(p.groups.m)-5] },
		"nine planes": func(p *QuadPlan) { p.groups.m = make([]float64, len(p.groups.pid)*9*4*corrLanes) },
		"patch id":    func(p *QuadPlan) { p.groups.pid[len(p.groups.pid)-1] = 2 },
		"empty row":   func(p *QuadPlan) { p.groups.lanes[0] &^= 1 << 2 },
		"row count":   func(p *QuadPlan) { p.NumNodes = 12 },
		"quad nodes":  func(p *QuadPlan) { p.QuadNodes = 0 },
	} {
		p := tinyPlan()
		damage(p)
		path := filepath.Join(t.TempDir(), "p.qplan")
		if err := SavePlan(path, p); err == nil {
			t.Errorf("%s: SavePlan wrote a plan LoadPlan cannot read", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: a refused save left %s behind (%v)", name, path, err)
		}
	}
}

// FuzzLoadPlan: whatever the bytes, the reader returns a plan or an
// ErrPlanFormat; a plan it accepts is well-formed enough to write back as
// the very same file.
func FuzzLoadPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := readPlan(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrPlanFormat) {
				t.Fatalf("error outside ErrPlanFormat: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := writePlan(&out, p); err != nil {
			t.Fatalf("accepted plan does not write back: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted plan writes back as %d different bytes (read %d)", out.Len(), len(data))
		}
	})
}

// TestPlanCacheReplacesV1Entry: a version-1 gob entry found under the
// version-2 cache key (it cannot happen through the fingerprint, which hashes
// the version — but a file is a file) is counted corrupt, rebuilt, overwritten
// and served from disk on the next call.
func TestPlanCacheReplacesV1Entry(t *testing.T) {
	s := planSphere()
	dir := t.TempDir()
	path := PlanPath(dir, PlanFingerprint(s))
	old := v1GobBytes(t)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	built, src, err := PlanFor(s, 2, dir, reg)
	if err != nil || src != PlanBuilt {
		t.Fatalf("v1 entry: source %q err %v, want a rebuild", src, err)
	}
	if n := reg.Counter("bie.plan.cache.corrupt").Value(); n != 1 {
		t.Fatalf("bie.plan.cache.corrupt = %d, want 1", n)
	}
	now, err := os.ReadFile(path)
	if err != nil || bytes.Equal(now, old) || !strings.HasPrefix(string(now), planMagic) {
		t.Fatalf("entry not overwritten with a current plan file (err %v, %d bytes)", err, len(now))
	}
	loaded, src, err := PlanFor(s, 2, dir, reg)
	if err != nil || src != PlanDisk {
		t.Fatalf("second call: source %q err %v, want the disk entry", src, err)
	}
	samePlan(t, built, loaded, "rebuilt-vs-reloaded")
	if h, c := reg.Counter("bie.plan.cache.hit").Value(), reg.Counter("bie.plan.cache.corrupt").Value(); h != 1 || c != 1 {
		t.Fatalf("after reload: hit %d corrupt %d, want 1 and 1", h, c)
	}
}
