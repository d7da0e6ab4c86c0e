//go:build linux

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns every child process and temp dir of the run, so that one call
// — from the normal exit path, a failed workload or a signal handler —
// leaves nothing behind.
type procs struct {
	cleaning sync.Mutex // held for the whole of cleanup

	mu    sync.Mutex
	kids  []*child
	dirs  []string
	work  string // parent of every temp dir; inside the checkout
	smtd  string // built binary
	tmpID int
}

// child is one smtd process (coordinator or worker) in its own process
// group, with its stdout+stderr kept for diagnostics.
type child struct {
	cmd    *exec.Cmd
	name   string
	addr   string // coordinator mode: host:port parsed from "listening on"
	ready  chan struct{}
	exited chan struct{}

	mu    sync.Mutex
	lines []string
}

func (c *child) base() string { return "http://" + c.addr }

func (c *child) log() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.lines, "\n")
}

// countLines reports how many output lines contain sub.
func (c *child) countLines(sub string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, l := range c.lines {
		if strings.Contains(l, sub) {
			n++
		}
	}
	return n
}

// build compiles cmd/smtd from the checkout into the work dir.
func (p *procs) build(ctx context.Context, root string) error {
	p.smtd = filepath.Join(p.work, "smtd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", p.smtd, "./cmd/smtd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/smtd: %v\n%s", err, out)
	}
	return nil
}

// tempDir makes a fresh directory under the work dir, removed by cleanup.
func (p *procs) tempDir(prefix string) (string, error) {
	p.mu.Lock()
	p.tmpID++
	dir := filepath.Join(p.work, fmt.Sprintf("%s-%d-%d", prefix, os.Getpid(), p.tmpID))
	p.dirs = append(p.dirs, dir)
	p.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// start launches smtd with args. Coordinators (no -worker flag) listen on
// 127.0.0.1:0 and start returns once the address printed on their
// "listening on" line answers /healthz; workers return as soon as they run.
func (p *procs) start(ctx context.Context, name string, args ...string) (*child, error) {
	worker := false
	for _, a := range args {
		if a == "-worker" {
			worker = true
		}
	}
	if !worker {
		args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	}
	c := &child{
		cmd:    exec.Command(p.smtd, args...),
		name:   name,
		ready:  make(chan struct{}),
		exited: make(chan struct{}),
	}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	pr, pw := io.Pipe()
	c.cmd.Stdout, c.cmd.Stderr = pw, pw
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.kids = append(p.kids, c)
	p.mu.Unlock()
	go func() {
		c.cmd.Wait()
		pw.Close()
		close(c.exited)
	}()
	go func() {
		const marker = "smtd listening on "
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.lines = append(c.lines, line)
			c.mu.Unlock()
			if c.addr == "" && strings.HasPrefix(line, marker) {
				c.addr = strings.TrimSpace(strings.TrimPrefix(line, marker))
				close(c.ready)
			}
		}
	}()
	if worker {
		return c, nil
	}
	select {
	case <-c.ready:
	case <-c.exited:
		return nil, fmt.Errorf("%s exited before listening:\n%s", name, c.log())
	case <-ctx.Done():
		return nil, fmt.Errorf("%s: waiting for the listening line: %w", name, ctx.Err())
	}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.base()+"/healthz", nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("%s exited before answering /healthz:\n%s", name, c.log())
		case <-ctx.Done():
			return nil, fmt.Errorf("%s: waiting for /healthz: %w", name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM (smtd drains) and waits for the exit, killing the
// process group if the drain outlives ctx. It returns how long the drain
// took.
func (c *child) stop(ctx context.Context) time.Duration {
	t0 := time.Now()
	select {
	case <-c.exited:
		return 0 // already reaped; its pid may belong to someone else by now
	default:
	}
	syscall.Kill(c.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-ctx.Done():
		c.kill()
	}
	return time.Since(t0)
}

// kill ends the child's whole process group and waits for it.
func (c *child) kill() {
	select {
	case <-c.exited:
		return
	default:
	}
	syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	<-c.exited
}

// vmHWM reads the peak resident set of a live process in MB.
func vmHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", pid)
}

// cleanup kills every child still running and removes every temp dir. It
// is safe to call more than once and from the signal-handling goroutine: a
// second caller waits for the first to finish, so the process cannot exit
// half-way through.
func (p *procs) cleanup() {
	p.cleaning.Lock()
	defer p.cleaning.Unlock()
	p.mu.Lock()
	kids, dirs := p.kids, p.dirs
	p.kids, p.dirs = nil, nil
	p.mu.Unlock()
	for _, c := range kids {
		c.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}
