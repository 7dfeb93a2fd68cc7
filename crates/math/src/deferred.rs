//! A value derived on its first read, from a recipe it holds until then.
//!
//! Some state every process of a round could derive is read by only a few
//! of them: the committee's key shares by whoever makes a decryption share
//! (relinearization keys, by whoever relinearizes, are deferred a level at
//! a time by `mycelium_bgv`'s `RelinKey`). [`Deferred`] holds the
//! recipe — the closure eager derivation would have run, owning what it
//! reads (a key, the seeded stream it draws from) — and runs it the first
//! time the value is read, so the value is the one eager derivation gives
//! and a process that never reads it never pays for it. The recipe is
//! dropped once it has run.
//!
//! Clones share one cell: a clone taken before the first read sees the
//! same, single derivation, and two threads racing the first read block
//! on one run of the recipe.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

type Recipe<T> = Box<dyn FnOnce() -> T + Send>;

/// A value derived on first read (see the module docs).
pub struct Deferred<T> {
    inner: Arc<Cell<T>>,
}

struct Cell<T> {
    value: OnceLock<T>,
    recipe: Mutex<Option<Recipe<T>>>,
}

impl<T> Deferred<T> {
    /// A value `recipe` derives on the first read.
    pub fn new(recipe: impl FnOnce() -> T + Send + 'static) -> Self {
        Self::with(OnceLock::new(), Some(Box::new(recipe)))
    }

    /// A value derived already.
    pub fn ready(value: T) -> Self {
        Self::with(OnceLock::from(value), None)
    }

    fn with(value: OnceLock<T>, recipe: Option<Recipe<T>>) -> Self {
        let recipe = Mutex::new(recipe);
        Self {
            inner: Arc::new(Cell { value, recipe }),
        }
    }

    /// The value, derived now if this is the first read of any clone.
    pub fn get(&self) -> &T {
        self.inner.value.get_or_init(|| {
            let recipe = self.inner.recipe.lock().expect("recipe lock").take();
            recipe.expect("an underived value holds its recipe")()
        })
    }

    /// Whether the value has been derived (by any clone).
    pub fn is_derived(&self) -> bool {
        self.inner.value.get().is_some()
    }
}

impl<T> Clone for Deferred<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Deferred<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.value.get() {
            Some(value) => value.fmt(f),
            None => f.write_str("<not derived>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn derives_on_first_read_only() {
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let d = Deferred::new(move || {
            counted.fetch_add(1, Ordering::SeqCst);
            42u64
        });
        assert!(!d.is_derived());
        assert_eq!(runs.load(Ordering::SeqCst), 0);
        assert_eq!(*d.get(), 42);
        assert_eq!(*d.get(), 42);
        assert!(d.is_derived());
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let ready = Deferred::ready(7u8);
        assert!(ready.is_derived());
        assert_eq!(*ready.get(), 7);
        assert_eq!(format!("{ready:?}"), "7");
    }

    #[test]
    fn clones_and_racing_threads_share_one_derivation() {
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let d = Deferred::new(move || {
            counted.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            vec![1u32, 2, 3]
        });
        let early = d.clone();
        assert_eq!(format!("{early:?}"), "<not derived>");
        let barrier = Barrier::new(2);
        let seen: Vec<Vec<u32>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let (d, barrier) = (d.clone(), &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        d.get().clone()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(seen, [vec![1, 2, 3], vec![1, 2, 3]]);
        assert!(early.is_derived());
        assert_eq!(early.get(), &[1, 2, 3]);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }
}
