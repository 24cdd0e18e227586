package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRefusedFlagsExitBeforeServing pins that the retired daemon knobs and
// a negative -cache-entries exit 2 before anything listens: the -store
// directory is never created, and run returns instead of serving.
func TestRefusedFlagsExitBeforeServing(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-job-workers", "4"}, "job-workers"},
		{[]string{"-queue-depth", "8"}, "queue-depth"},
		{[]string{"-job-history", "8"}, "job-history"},
		{[]string{"-store-max-bytes", "1024"}, "store-max-bytes"},
		{[]string{"-cache-entries", "-1"}, "-cache-entries -1"},
		{[]string{"-log-level", "loud"}, "loud"},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			args := append([]string{"-addr", "127.0.0.1:0", "-store", dir}, tc.args...)
			var stderr bytes.Buffer
			code := make(chan int, 1)
			go func() { code <- run(args, &stderr) }()
			select {
			case c := <-code:
				if c != 2 {
					t.Fatalf("exit %d, want 2; stderr:\n%s", c, stderr.String())
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run kept serving instead of refusing its flags")
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr does not name %q:\n%s", tc.want, stderr.String())
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("store directory exists (stat err %v): run got past its flag checks", err)
			}
		})
	}
}
