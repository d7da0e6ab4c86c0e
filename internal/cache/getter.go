package cache

// Getter is the Get/Put contract every tier and wrapper in this package
// implements, and snapshot.Backing is its []byte instantiation. The same
// method set satisfies the seams internal/exp declares for itself
// (exp.JobCache, exp.SnapshotStore), which is how a tier reaches the
// kernel without exp importing this package. Implementations must be
// safe for concurrent use.
type Getter[V any] interface {
	Get(key string) (V, bool)
	Put(key string, v V)
}
