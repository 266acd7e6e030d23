package main

// The real-binary smoke test: build chopperd, start it on an ephemeral
// port and drive it over HTTP — coalescing, forced overload answered with
// 429s, and a SIGTERM drain. Guarded by -short since it shells out to the
// Go tool.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const addSrc = "node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"

// daemon is one running chopperd and the log it writes to stderr.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logDone chan struct{} // closed when stderr reaches EOF
	mu      sync.Mutex
	log     strings.Builder
}

// startChopperd runs bin with args on 127.0.0.1:0 and returns once the
// daemon logs the address it listens on.
func startChopperd(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...), logDone: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.cmd.Process.Kill() // already exited when the test stopped it
		<-d.logDone
		d.cmd.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.log.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		t.Fatalf("chopperd exited before listening:\n%s", d.logText())
	case <-time.After(10 * time.Second):
		t.Fatalf("chopperd did not log its address within 10 s:\n%s", d.logText())
	}
	return d
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// post sends one JSON request and returns the status, headers and body.
func (d *daemon) post(kind string, req map[string]any) (int, http.Header, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := http.Post(d.base+"/v1/"+kind, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// "drained cleanly" log line.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.logDone:
	case <-time.After(15 * time.Second):
		t.Fatalf("chopperd still running 15 s after SIGTERM:\n%s", d.logText())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("chopperd exit after SIGTERM: %v\n%s", err, d.logText())
	}
	if !strings.Contains(d.logText(), "drained cleanly") {
		t.Fatalf("chopperd log has no clean drain:\n%s", d.logText())
	}
}

func TestChopperdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the chopperd binary")
	}
	bin := filepath.Join(t.TempDir(), "chopperd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building chopperd: %v\n%s", err, out)
	}

	t.Run("coalesces", func(t *testing.T) {
		d := startChopperd(t, bin, "-batch-window", "100ms", "-max-batch", "8")
		run := map[string]any{"source": addSrc, "lanes": 2, "inputs": map[string][]uint64{"a": {1, 2}, "b": {3, 4}}}
		sizes := make([]int, 8)
		var wg sync.WaitGroup
		for i := range sizes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, _, body, err := d.post("run", run)
				var resp struct {
					BatchSize int `json:"batch_size"`
				}
				if err == nil {
					err = json.Unmarshal(body, &resp)
				}
				if err != nil || code != http.StatusOK {
					t.Errorf("run %d: status %d, %v: %s", i, code, err, body)
				}
				sizes[i] = resp.BatchSize
			}(i)
		}
		wg.Wait()
		most := 0
		for _, n := range sizes {
			most = max(most, n)
		}
		if most < 2 {
			t.Errorf("eight concurrent same-key runs inside a 100 ms window never shared a pass: batch sizes %v", sizes)
		}
		d.stop(t)
	})

	t.Run("sheds", func(t *testing.T) {
		d := startChopperd(t, bin, "-max-inflight", "1", "-max-queue", "0")
		// Two 64-bit divisions verified over 64 trials: ~0.65 s on a 2-vCPU
		// x86 host, holding the batch class's only slot well past the burst.
		held := make(chan int, 1)
		go func() {
			code, _, body, err := d.post("verify", map[string]any{
				"source": "node main(a: u64, b: u64) returns (z: u64) let z = div(a, b) + div(b, a); tel", "trials": 64})
			if err != nil || code != http.StatusOK {
				t.Errorf("held request: status %d, %v: %s", code, err, body)
			}
			held <- code
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(d.base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(body), "chopperd_inflight{class=\"batch\"} 1\n") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the held request never occupied the batch slot:\n%s", body)
			}
			time.Sleep(2 * time.Millisecond)
		}

		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				code, hdr, body, err := d.post("compile", map[string]any{"source": addSrc})
				if err != nil || code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
					t.Errorf("burst request %d: status %d Retry-After %q, %v: %s; want 429 with Retry-After",
						i, code, hdr.Get("Retry-After"), err, body)
				}
			}(i)
		}
		wg.Wait()
		<-held
		d.stop(t)
	})
}
