package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance records what the numbers were measured on.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GOGCEnv    string `json:"gogc_env"`
	// GOGCInCrawl is the GOGC in force while a crawl ran: sched raises it
	// for the length of a crawl unless GOGC is set.
	GOGCInCrawl         float64 `json:"gogc_in_crawl"`
	CacheEntriesAtStart int     `json:"scriptcache_entries_at_start"`
}

func collectProvenance() (provenance, error) {
	p := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit("."), GOGCEnv: os.Getenv("GOGC"),
	}
	var err error
	p.SourceHash, err = sourceHash(".")
	return p, err
}

// gitCommit reads the checked-out commit from root/.git without running
// git. A checkout without .git, or one it cannot follow, reads "unknown":
// sourceHash then identifies the code.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash hashes the program's Go sources and go.mod under root, outside
// the benchmark's own directory and hidden directories: two runs with the
// same hash measured the same program.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == filepath.Join(root, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(filepath.ToSlash(f) + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
