package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// campaignLine matches the campaign summary: strike count and accounted AVF.
var campaignLine = regexp.MustCompile(`(?m)^strikes (\d+): .*\(accounted AVF ([0-9.]+)\)`)

// TestEverySchemeWithoutTargetRuns runs a short campaign under each scheme
// core builds without a DVM target: each must strike the queue and account
// a non-zero AVF.
func TestEverySchemeWithoutTargetRuns(t *testing.T) {
	for _, scheme := range []string{"base", "visa", "visa+opt1", "visa+opt2"} {
		t.Run(scheme, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-mix", "CPU-A", "-scheme", scheme, "-n", "20000"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), "scheme     "+scheme+"\n") {
				t.Errorf("report does not name scheme %s:\n%s", scheme, stdout.String())
			}
			m := campaignLine.FindStringSubmatch(stdout.String())
			if m == nil {
				t.Fatalf("no campaign line:\n%s", stdout.String())
			}
			if strikes, _ := strconv.Atoi(m[1]); strikes == 0 {
				t.Errorf("no strikes:\n%s", stdout.String())
			}
			if accounted, _ := strconv.ParseFloat(m[2], 64); accounted <= 0 {
				t.Errorf("accounted AVF %s, want > 0", m[2])
			}
		})
	}
}

// TestDVMRefused pins that a scheme needing a DVM target fails with core's
// error rather than running an unconfigured controller.
func TestDVMRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scheme", "dvm", "-n", "5000"}, &stdout, &stderr); code == 0 {
		t.Fatalf("-scheme dvm exited 0:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "DVMTarget") {
		t.Errorf("stderr does not carry core's DVMTarget error:\n%s", stderr.String())
	}
}
