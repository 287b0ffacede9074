package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maacs/internal/core"
	"maacs/internal/pairing"
)

func TestOpenStore(t *testing.T) {
	sys := core.NewSystem(pairing.Test())

	t.Run("mem", func(t *testing.T) {
		st, err := openStore(config{store: "mem"}, sys)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if got := st.Info().Backend; got != "mem" {
			t.Fatalf("backend %q, want mem", got)
		}
	})

	t.Run("file", func(t *testing.T) {
		st, err := openStore(config{store: "file", dataDir: t.TempDir()}, sys)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if got := st.Info().Backend; got != "file" {
			t.Fatalf("backend %q, want file", got)
		}
	})

	t.Run("file-refuses-shard-dir", func(t *testing.T) {
		dir := t.TempDir()
		shard := filepath.Join(dir, "shard-002")
		if err := os.Mkdir(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		st, err := openStore(config{store: "file", dataDir: dir}, sys)
		if err == nil {
			st.Close()
			t.Fatal("data dir with a shard directory opened")
		}
		if !strings.Contains(err.Error(), shard) {
			t.Fatalf("error %q does not name %s", err, shard)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("refused open left %d entries in the data dir, want only the shard dir", len(ents))
		}
	})

	for name, cfg := range map[string]config{
		"file-without-data-dir": {store: "file"},
		"unknown-backend":       {store: "sharded"},
	} {
		t.Run(name, func(t *testing.T) {
			if st, err := openStore(cfg, sys); err == nil {
				st.Close()
				t.Fatalf("%+v accepted", cfg)
			}
		})
	}
}
