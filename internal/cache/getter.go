package cache

import "context"

// Getter is the one Get/Put contract every tier, wrapper, and consumer in
// the tree shares: the stores in this package implement it, and
// exp.JobCache, exp.SnapshotStore, snapshot.Backing and dist.ResultCache
// are aliases of its instantiations. Implementations must be safe for
// concurrent use.
type Getter[V any] interface {
	Get(key string) (V, bool)
	Put(key string, v V)
}

// The optional upgrades a Getter may offer. Only Flight (cancellable
// in-flight wait, leader release) and Remote (cancellable HTTP peek and
// fill) define them, so the assertions live here, next to both, and
// callers go through GetCtx, PutCtx and Forget below.
type (
	ctxGetter[V any] interface {
		GetCtx(ctx context.Context, key string) (V, bool, error)
	}
	ctxPutter[V any] interface {
		PutCtx(ctx context.Context, key string, v V)
	}
	forgetter interface {
		Forget(key string)
	}
)

// GetCtx is g.Get bounded by ctx when g can abandon a lookup early, and
// plain g.Get otherwise — including when the upgrade is hidden behind a
// wrapper that implements only Get/Put. The error is non-nil only for
// ctx's own end; it takes no leadership and creates no obligation to Put.
func GetCtx[V any](ctx context.Context, g Getter[V], key string) (V, bool, error) {
	if c, ok := g.(ctxGetter[V]); ok {
		return c.GetCtx(ctx, key)
	}
	v, ok := g.Get(key)
	return v, ok, nil
}

// PutCtx is g.Put bounded by ctx when g can drop a fill early, and plain
// g.Put otherwise.
func PutCtx[V any](ctx context.Context, g Getter[V], key string, v V) {
	if c, ok := g.(ctxPutter[V]); ok {
		c.PutCtx(ctx, key, v)
		return
	}
	g.Put(key, v)
}

// Forget releases the caller's leadership of a key it missed on and will
// never Put (see Flight.Forget). A no-op for stores whose Get creates no
// obligation.
func Forget[V any](g Getter[V], key string) {
	if f, ok := g.(forgetter); ok {
		f.Forget(key)
	}
}
