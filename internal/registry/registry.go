// Package registry is the name registry behind the policy, predictor and
// experiment menus.
package registry

import (
	"fmt"
	"sync"
)

// Named maps names to values of one kind. Names are permanent within a
// process — re-registering one fails, so a cached result keyed by a name can
// never mean two different machines — and listed in registration order. It is
// concurrency-safe: services register entries while simulations resolve others.
type Named[T any] struct {
	Pkg, Kind string // error prefix and noun, e.g. "policy", "fetch policy"
	Default   string // what the empty name (a config's zero value) resolves to
	mu        sync.RWMutex
	byName    map[string]T
	order     []string
}

// Register adds v under name: a letter, then letters, digits, or _ + . - (64 bytes at most).
func (r *Named[T]) Register(name string, v T) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("%s: %s name %q must be 1 to 64 bytes", r.Pkg, r.Kind, name)
	}
	for i, c := range name {
		letter := c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z'
		if !letter && (i == 0 || !(c >= '0' && c <= '9') && c != '_' && c != '+' && c != '.' && c != '-') {
			return fmt.Errorf("%s: %s name %q must be a letter followed by letters, digits, or _ + . -", r.Pkg, r.Kind, name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("%s: %s %q already registered", r.Pkg, r.Kind, name)
	}
	if r.byName == nil {
		r.byName = make(map[string]T)
	}
	r.byName[name], r.order = v, append(r.order, name)
	return nil
}

// Lookup returns the value registered under name (under Default when empty).
func (r *Named[T]) Lookup(name string) (T, bool) {
	if name == "" {
		name = r.Default
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byName[name]
	return v, ok
}

// Names returns every registered name in registration order.
func (r *Named[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}
