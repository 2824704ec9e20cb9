package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/daemon"
)

// TestConfigRoundTrip exercises the documented example configuration.
func TestConfigRoundTrip(t *testing.T) {
	cfgJSON := `{
	  "as": 4,
	  "routerID": 4,
	  "validation": "drop",
	  "listen": ["127.0.0.1:0"],
	  "originate": [{"prefix": "131.179.0.0/16", "moasList": [4, 226]}],
	  "moasrr": [{"prefix": "131.179.0.0/16", "origins": [4, 226]}],
	  "importDeny": ["10.0.0.0/8"],
	  "reconnectSeconds": 2
	}`
	path := filepath.Join(t.TempDir(), "speaker.json")
	if err := os.WriteFile(path, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := daemon.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Speaker.AS() != 4 {
		t.Errorf("AS = %v", d.Speaker.AS())
	}
}
