package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wiot-security/sift/internal/amulet"
	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/features"
)

func TestBuildRejectsUnknownVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.img")
	err := run([]string{"build", "-version", "Turbo", "-o", path})
	if err == nil || !strings.Contains(err.Error(), "unknown detector version") {
		t.Fatalf("err = %v, want an unknown-version error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused build left %s behind (stat err %v)", path, err)
	}
}

func TestBuildWritesDetectorImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sift.img")
	if err := run([]string{"build", "-version", "Simplified", "-o", path}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(features.Simplified)
	if err != nil {
		t.Fatal(err)
	}
	want, err := amulet.EncodeImage(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("image is %d B, want the %d B encoding of program.Build(Simplified)", len(got), len(want))
	}
	if err := run([]string{"info", path}); err != nil {
		t.Errorf("info on the built image: %v", err)
	}
}
