package cache

import "context"

// Getter is the one Get/Put contract every tier, wrapper, and consumer in
// the tree shares: the stores in this package implement it, and
// exp.JobCache, exp.SnapshotStore and snapshot.Backing are aliases of its
// instantiations. Implementations must be safe for concurrent use.
type Getter[V any] interface {
	Get(key string) (V, bool)
	Put(key string, v V)
}

// upgrade is the one optional extension a Getter may offer: Flight's
// cancellable in-flight wait and leader release. The assertion lives here,
// next to Flight, and callers go through GetCtx and Forget below.
type upgrade[V any] interface {
	GetCtx(ctx context.Context, key string) (V, bool, error)
	Forget(key string)
}

// GetCtx is g.Get bounded by ctx when g can abandon a lookup early, and
// plain g.Get otherwise — including when the upgrade is hidden behind a
// wrapper that implements only Get/Put. The error is non-nil only for
// ctx's own end; it takes no leadership and creates no obligation to Put.
func GetCtx[V any](ctx context.Context, g Getter[V], key string) (V, bool, error) {
	if u, ok := g.(upgrade[V]); ok {
		return u.GetCtx(ctx, key)
	}
	v, ok := g.Get(key)
	return v, ok, nil
}

// Forget releases the caller's leadership of a key it missed on and will
// never Put (see Flight.Forget). A no-op for stores whose Get creates no
// obligation.
func Forget[V any](g Getter[V], key string) {
	if u, ok := g.(upgrade[V]); ok {
		u.Forget(key)
	}
}
