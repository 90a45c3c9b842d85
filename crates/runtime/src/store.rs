//! Generational slab session storage: typed arena pools behind an O(1)
//! paged id index.
//!
//! [`SessionStore`] is the storage layer under
//! [`FilterBank`](crate::FilterBank). It replaces the former
//! `Vec<Slot>`-of-`Box<dyn SessionBackend>` plus side `HashMap<u64, usize>`
//! with two pieces:
//!
//! * **Typed pools** — one contiguous arena per `f64` ×
//!   [`MONO_SHAPES`](kalmmind::small::MONO_SHAPES) shape holding
//!   [`SmallSessionCore`]s *inline* (no box, no pointer chase per session),
//!   plus one boxed-dyn **overflow pool** where every other backend
//!   (dynamic shapes, `f32`, fixed point, accel models) lives exactly as it
//!   did before. Seating inspects the boxed backend through its `Any`
//!   supertrait; a monomorphized `f64` session is unbundled into its core,
//!   anything else goes to overflow unchanged.
//! * **A paged direct-map index** — `id → packed handle` resolved in O(1)
//!   with no hashing: ids below 2³² land in 4096-entry pages allocated on
//!   demand, larger (fleet-epoch style) ids go to a small ordered outlier
//!   tier. Removal clears one entry in place; nothing is ever rebuilt on
//!   removal (the old `swap_remove` + index-fixup pattern is gone, slots
//!   are recycled through per-pool free lists instead).
//!
//! A [`Handle`] is `{pool, index, generation}`. Generations start at 1 and
//! are bumped when a free slot is reseated, so a stale handle — one kept
//! across a remove — can never alias the slot's new occupant: every
//! accessor validates the generation (ABA protection; the generation
//! counter is 27 bits, so aliasing would take 2²⁷ reuses of one slot
//! between capture and use). Session *ids* are never reused at all — the
//! bank's id sequence only moves forward — so the index is the sole
//! authority on liveness and the generation is defense in depth.
//!
//! **Bit-exactness.** Pool selection changes where a monomorphized session's
//! persistent core lives and which scratch its steps use — and
//! [`SmallSessionCore`]'s contract is that neither affects one bit of the
//! trajectory (every scratch field is written before read within a step).
//! The overflow pool stores the very same boxed values as before. The
//! golden-bit, snapshot-replay, and rebalance tests pin this.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;

use kalmmind::small::{SmallFilterSession, SmallSessionCore};
use kalmmind::SessionBackend;

use crate::SessionStatus;

/// Entries per direct-map index page (2¹² ids → 32 KiB per page).
const PAGE_BITS: u64 = 12;
/// Number of ids covered by one page.
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Generation field width: 27 bits, always ≥ 1 so a packed handle is
/// never zero (zero is the index's vacant marker).
const GEN_MASK: u32 = (1 << 27) - 1;

/// Pool discriminants, in scan order. 0–1 are the typed mono pools in
/// [`MONO_SHAPES`](kalmmind::small::MONO_SHAPES) order; 2 is overflow.
pub(crate) const POOL_COUNT: usize = 3;
const POOL_2X3: u8 = 0;
const POOL_6X46: u8 = 1;
const POOL_OVERFLOW: u8 = 2;

/// Advances a slot generation on reuse, wrapping within the 27-bit field
/// and skipping 0 (so packed handles stay non-zero).
fn next_generation(generation: u32) -> u32 {
    let next = (generation + 1) & GEN_MASK;
    if next == 0 {
        1
    } else {
        next
    }
}

/// Location of one seated session: which pool, which slot, and the slot's
/// generation when the handle was issued.
///
/// Copy-cheap and packable into a `u64` for the index pages. A handle is
/// only dereferenced after generation validation, so holding one across a
/// remove degrades to "not found", never to another session's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Handle {
    /// Pool discriminant (`0..POOL_COUNT`).
    pub(crate) pool: u8,
    /// Slot index inside the pool.
    pub(crate) index: u32,
    /// Slot generation at issue time (`1..=GEN_MASK`).
    pub(crate) generation: u32,
}

impl Handle {
    /// Packs into the index-page representation. Never zero (generations
    /// start at 1), so zero can mark vacancy.
    fn pack(self) -> u64 {
        debug_assert!(self.generation >= 1 && self.generation <= GEN_MASK);
        debug_assert!(self.pool < POOL_COUNT as u8);
        ((self.pool as u64) << 59) | ((self.generation as u64) << 32) | self.index as u64
    }

    /// Inverse of [`Handle::pack`] (`raw` must be non-zero).
    fn unpack(raw: u64) -> Self {
        Self {
            pool: ((raw >> 59) & 0xF) as u8,
            index: raw as u32,
            generation: ((raw >> 32) as u32) & GEN_MASK,
        }
    }
}

/// Bank-side bookkeeping for one seated session — everything the old
/// `Slot` carried besides the backend itself, plus the routing mark.
#[derive(Debug)]
pub(crate) struct SlotMeta {
    /// The session's stable id (`SessionId.0`).
    pub(crate) id: u64,
    /// Current slot generation; issued handles must match.
    pub(crate) generation: u32,
    /// Lifecycle status (Active / parked Failed).
    pub(crate) status: SessionStatus,
    /// Successful steps since seating (or since the snapshot's iteration
    /// for a restored session).
    pub(crate) steps_ok: usize,
    /// Routing epoch that last claimed this slot. A slot is part of the
    /// current batch iff `mark == bank.epoch`; comparing against a
    /// pre-incremented epoch replaces the per-batch `HashSet` dedup with
    /// one branch and no allocation.
    pub(crate) mark: u64,
    /// Batch-position argument stored by routing (index into the routed
    /// batch or sequence list), valid only while `mark` is current.
    pub(crate) arg: u32,
}

impl SlotMeta {
    fn fresh(id: u64, generation: u32) -> Self {
        Self {
            id,
            generation,
            status: SessionStatus::Active,
            steps_ok: 0,
            mark: 0,
            arg: 0,
        }
    }
}

/// What a pool stores: a uniform erased view over inline mono cores and
/// boxed dynamic backends, so every accessor and dispatch path is written
/// once against `&(mut) dyn SessionBackend`.
pub(crate) trait StoredBackend: Send + fmt::Debug + 'static {
    /// Erased shared view.
    fn as_backend(&self) -> &dyn SessionBackend;
    /// Erased mutable view.
    fn as_backend_mut(&mut self) -> &mut dyn SessionBackend;
    /// Re-boxes for the removal path (`FilterBank::remove`/`drain` return
    /// `Box<dyn SessionBackend>` regardless of where the session lived).
    fn boxed(self) -> Box<dyn SessionBackend>;
}

/// Implements [`StoredBackend`] for a concrete (sized) session type; a
/// blanket `impl<P: SessionBackend>` would conflict with the
/// `Box<dyn SessionBackend>` impl under coherence, so the mono core
/// shapes are enumerated explicitly instead.
macro_rules! stored_inline {
    ($($ty:ty),+ $(,)?) => {$(
        impl StoredBackend for $ty {
            fn as_backend(&self) -> &dyn SessionBackend {
                self
            }

            fn as_backend_mut(&mut self) -> &mut dyn SessionBackend {
                self
            }

            fn boxed(self) -> Box<dyn SessionBackend> {
                Box::new(self)
            }
        }
    )+};
}

stored_inline!(SmallSessionCore<f64, 2, 3>, SmallSessionCore<f64, 6, 46>);

impl StoredBackend for Box<dyn SessionBackend> {
    fn as_backend(&self) -> &dyn SessionBackend {
        &**self
    }

    fn as_backend_mut(&mut self) -> &mut dyn SessionBackend {
        &mut **self
    }

    fn boxed(self) -> Box<dyn SessionBackend> {
        self
    }
}

/// One arena slot: bookkeeping plus the payload (`None` while on the free
/// list — the generation in `meta` then belongs to the *previous* tenant
/// until reseating bumps it).
#[derive(Debug)]
pub(crate) struct PoolSlot<P> {
    pub(crate) meta: SlotMeta,
    pub(crate) payload: Option<P>,
}

/// A contiguous slot arena with free-list reuse. Slots are never moved —
/// removal leaves a hole for the next insert — so handles into a pool stay
/// valid until their slot is reseated (which bumps the generation).
pub(crate) struct Pool<P> {
    slots: Vec<PoolSlot<P>>,
    free: Vec<u32>,
}

impl<P> fmt::Debug for Pool<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("slots", &self.slots.len())
            .field("free", &self.free.len())
            .finish()
    }
}

impl<P: StoredBackend> Pool<P> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Sessions currently seated (capacity minus free slots).
    fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Seats `payload`, reusing a free slot (generation bumped) or growing
    /// the arena (generation 1). Returns `(index, generation)`.
    fn insert(&mut self, id: u64, payload: P) -> (u32, u32) {
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            let generation = next_generation(slot.meta.generation);
            slot.meta = SlotMeta::fresh(id, generation);
            slot.payload = Some(payload);
            (index, generation)
        } else {
            let index = u32::try_from(self.slots.len()).expect("pool capacity exceeds u32");
            self.slots.push(PoolSlot {
                meta: SlotMeta::fresh(id, 1),
                payload: Some(payload),
            });
            (index, 1)
        }
    }

    /// Resolves a handle's slot, rejecting vacant slots and stale
    /// generations.
    fn get(&self, index: u32, generation: u32) -> Option<&PoolSlot<P>> {
        let slot = self.slots.get(index as usize)?;
        (slot.meta.generation == generation && slot.payload.is_some()).then_some(slot)
    }

    /// Mutable sibling of [`Pool::get`], same validation.
    fn get_mut(&mut self, index: u32, generation: u32) -> Option<&mut PoolSlot<P>> {
        let slot = self.slots.get_mut(index as usize)?;
        (slot.meta.generation == generation && slot.payload.is_some()).then_some(slot)
    }

    /// Vacates a slot, returning its payload and pushing the slot onto the
    /// free list. Stale generations are rejected, not vacated.
    fn take(&mut self, index: u32, generation: u32) -> Option<P> {
        let slot = self.slots.get_mut(index as usize)?;
        if slot.meta.generation != generation {
            return None;
        }
        let payload = slot.payload.take()?;
        self.free.push(index);
        Some(payload)
    }

    /// Empties the arena, yielding `(meta.id, payload)` for every occupied
    /// slot in index order.
    fn drain_into(&mut self, out: &mut Vec<(u64, Box<dyn SessionBackend>)>) {
        for slot in self.slots.drain(..) {
            if let Some(payload) = slot.payload {
                out.push((slot.meta.id, payload.boxed()));
            }
        }
        self.free.clear();
    }
}

/// O(1) direct-map id index with no hashing: `id → packed Handle`.
///
/// Ids below 2³² resolve through on-demand 4096-entry pages (`id >> 12`
/// selects the page, low bits the entry; 32 KiB per touched page, bounded
/// by the id high-water mark ÷ 4096). Ids at or above 2³² — a fleet
/// stamping shard epochs into high bits — fall back to an ordered outlier
/// tier, still log-bounded and HashMap-free. Packed value 0 means vacant.
struct PagedIndex {
    pages: Vec<Option<Box<[u64]>>>,
    outliers: BTreeMap<u64, u64>,
}

impl fmt::Debug for PagedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedIndex")
            .field("pages", &self.pages.len())
            .field("outliers", &self.outliers.len())
            .finish()
    }
}

impl PagedIndex {
    fn new() -> Self {
        Self {
            pages: Vec::new(),
            outliers: BTreeMap::new(),
        }
    }

    fn get(&self, id: u64) -> Option<Handle> {
        let raw = if id < (1 << 32) {
            let page = (id >> PAGE_BITS) as usize;
            *self
                .pages
                .get(page)?
                .as_deref()?
                .get(id as usize & (PAGE_SIZE - 1))?
        } else {
            self.outliers.get(&id).copied().unwrap_or(0)
        };
        (raw != 0).then(|| Handle::unpack(raw))
    }

    fn set(&mut self, id: u64, handle: Handle) {
        if id < (1 << 32) {
            let page = (id >> PAGE_BITS) as usize;
            if page >= self.pages.len() {
                self.pages.resize_with(page + 1, || None);
            }
            let entries =
                self.pages[page].get_or_insert_with(|| vec![0u64; PAGE_SIZE].into_boxed_slice());
            entries[id as usize & (PAGE_SIZE - 1)] = handle.pack();
        } else {
            self.outliers.insert(id, handle.pack());
        }
    }

    fn clear(&mut self, id: u64) {
        if id < (1 << 32) {
            let page = (id >> PAGE_BITS) as usize;
            if let Some(Some(entries)) = self.pages.get_mut(page) {
                entries[id as usize & (PAGE_SIZE - 1)] = 0;
            }
        } else {
            self.outliers.remove(&id);
        }
    }

    fn reset(&mut self) {
        self.pages.clear();
        self.outliers.clear();
    }
}

/// Per-pool occupancy counts, exposed so benches and CI can assert that a
/// homogeneous mono fleet actually landed in the typed arenas (and a
/// storage regression that silently re-routes sessions to the boxed
/// overflow pool fails loudly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCensus {
    /// Sessions inline in the `f64` 2×3 pool.
    pub mono_2x3: usize,
    /// Sessions inline in the `f64` 6×46 pool.
    pub mono_6x46: usize,
    /// Boxed sessions in the overflow pool (dynamic shapes, non-`f64`
    /// scalars, accel models).
    pub overflow: usize,
    /// Total arena slots allocated across all pools, occupied or free.
    /// `slots - total()` is the free-list depth; a remove-then-insert
    /// cycle that recycles a slot leaves this unchanged, while one that
    /// grows an arena does not — which is how the id-reuse regression
    /// tests observe recycling from outside the crate.
    pub slots: usize,
}

impl StoreCensus {
    /// Total sessions inline in typed mono pools.
    pub fn mono(&self) -> usize {
        self.mono_2x3 + self.mono_6x46
    }

    /// Total sessions across all pools.
    pub fn total(&self) -> usize {
        self.mono() + self.overflow
    }
}

/// Raw per-pool base pointers captured for a dispatch: `as_mut_ptr()` of
/// each pool's slot vector, type-erased to `usize` so the dispatch closure
/// is `Sync`. Valid only while the store is not structurally mutated
/// (no insert/remove), which `for_each_index`'s blocking contract
/// guarantees for the duration of a batch.
pub(crate) type PoolBases = [usize; POOL_COUNT];

/// Applies `f` to the slot at `(pool, index)` through raw base pointers.
///
/// # Safety
///
/// `bases` must come from [`SessionStore::pool_bases_mut`] on a store that
/// outlives this call and receives no structural mutation (insert, remove,
/// drain) while any dispatch using `bases` is in flight; `index` must be in
/// bounds for its pool; and no two concurrent calls may target the same
/// `(pool, index)` — the bank's epoch-mark routing rejects duplicates
/// before dispatch, making every routed slot unique.
pub(crate) unsafe fn with_slot_raw<R>(
    bases: &PoolBases,
    pool: u8,
    index: u32,
    f: impl FnOnce(&mut SlotMeta, Option<&mut dyn SessionBackend>) -> R,
) -> R {
    macro_rules! touch {
        ($p:ty) => {{
            let slot = &mut *(bases[pool as usize] as *mut PoolSlot<$p>).add(index as usize);
            let backend = slot.payload.as_mut().map(|p| p.as_backend_mut());
            f(&mut slot.meta, backend)
        }};
    }
    match pool {
        POOL_2X3 => touch!(SmallSessionCore<f64, 2, 3>),
        POOL_6X46 => touch!(SmallSessionCore<f64, 6, 46>),
        _ => touch!(Box<dyn SessionBackend>),
    }
}

/// Runs `$body` with `$p` bound to the pool selected by `$kind`.
macro_rules! with_pool {
    ($store:expr, $kind:expr, $p:ident => $body:expr) => {
        match $kind {
            POOL_2X3 => {
                let $p = &$store.p2x3;
                $body
            }
            POOL_6X46 => {
                let $p = &$store.p6x46;
                $body
            }
            _ => {
                let $p = &$store.overflow;
                $body
            }
        }
    };
}

/// Mutable sibling of [`with_pool!`].
macro_rules! with_pool_mut {
    ($store:expr, $kind:expr, $p:ident => $body:expr) => {
        match $kind {
            POOL_2X3 => {
                let $p = &mut $store.p2x3;
                $body
            }
            POOL_6X46 => {
                let $p = &mut $store.p6x46;
                $body
            }
            _ => {
                let $p = &mut $store.overflow;
                $body
            }
        }
    };
}

/// Runs `$body` once per pool (in pool-scan order) with `$p` bound to each.
macro_rules! each_pool {
    ($store:expr, $p:ident => $body:expr) => {{
        {
            let $p = &$store.p2x3;
            $body
        }
        {
            let $p = &$store.p6x46;
            $body
        }
        {
            let $p = &$store.overflow;
            $body
        }
    }};
}

/// The session storage layer: two typed mono arenas + one boxed overflow
/// arena, fronted by the paged id index. See the module docs for the
/// layout story.
#[derive(Debug)]
pub(crate) struct SessionStore {
    p2x3: Pool<SmallSessionCore<f64, 2, 3>>,
    p6x46: Pool<SmallSessionCore<f64, 6, 46>>,
    overflow: Pool<Box<dyn SessionBackend>>,
    index: PagedIndex,
    len: usize,
    /// Seated sessions whose status is Failed. Seating, removal and drain
    /// keep it exact here; status changes happen in the bank's dispatch,
    /// which reports them through [`SessionStore::note_failed`].
    failed: usize,
}

impl SessionStore {
    pub(crate) fn new() -> Self {
        Self {
            p2x3: Pool::new(),
            p6x46: Pool::new(),
            overflow: Pool::new(),
            index: PagedIndex::new(),
            len: 0,
            failed: 0,
        }
    }

    /// Sessions currently seated.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Seated sessions whose status is Failed (O(1)).
    pub(crate) fn failed(&self) -> usize {
        self.failed
    }

    /// Records `n` seated sessions that turned Failed since the last call.
    pub(crate) fn note_failed(&mut self, n: usize) {
        self.failed += n;
    }

    /// Resolves `id` to its current handle (O(1), no hashing).
    pub(crate) fn lookup(&self, id: u64) -> Option<Handle> {
        self.index.get(id)
    }

    /// Seats a boxed backend under `id`, unbundling monomorphized `f64`
    /// sessions into their typed pool and parking everything else in the
    /// overflow pool. The caller guarantees `id` is not already seated.
    pub(crate) fn seat(&mut self, id: u64, backend: Box<dyn SessionBackend>) -> Handle {
        debug_assert!(self.index.get(id).is_none(), "id {id} seated twice");
        let backend = match self.try_seat_mono(id, backend) {
            Ok(handle) => return handle,
            Err(backend) => backend,
        };
        let (index, generation) = self.overflow.insert(id, backend);
        self.finish_seat(
            id,
            Handle {
                pool: POOL_OVERFLOW,
                index,
                generation,
            },
        )
    }

    fn finish_seat(&mut self, id: u64, handle: Handle) -> Handle {
        self.index.set(id, handle);
        self.len += 1;
        handle
    }

    /// Typed-pool seating: inspects the boxed backend through `Any` and
    /// moves a recognized `f64` mono session (bundled
    /// [`SmallFilterSession`] or bare [`SmallSessionCore`], as `remove`
    /// hands back) inline. Returns the untouched box otherwise.
    fn try_seat_mono(
        &mut self,
        id: u64,
        backend: Box<dyn SessionBackend>,
    ) -> Result<Handle, Box<dyn SessionBackend>> {
        macro_rules! shape {
            ($pool:ident, $kind:expr, $x:literal, $z:literal) => {{
                // Check by reference first: a failed `Box<dyn Any>`
                // downcast could not recover the `SessionBackend` vtable.
                let probe: &dyn Any = &*backend;
                if probe.is::<SmallFilterSession<f64, $x, $z>>() {
                    let any: Box<dyn Any> = backend;
                    let session = any
                        .downcast::<SmallFilterSession<f64, $x, $z>>()
                        .expect("is() checked the concrete type");
                    let (index, generation) = self.$pool.insert(id, session.into_core());
                    return Ok(self.finish_seat(
                        id,
                        Handle {
                            pool: $kind,
                            index,
                            generation,
                        },
                    ));
                }
                if probe.is::<SmallSessionCore<f64, $x, $z>>() {
                    let any: Box<dyn Any> = backend;
                    let core = any
                        .downcast::<SmallSessionCore<f64, $x, $z>>()
                        .expect("is() checked the concrete type");
                    let (index, generation) = self.$pool.insert(id, *core);
                    return Ok(self.finish_seat(
                        id,
                        Handle {
                            pool: $kind,
                            index,
                            generation,
                        },
                    ));
                }
            }};
        }
        shape!(p2x3, POOL_2X3, 2, 3);
        shape!(p6x46, POOL_6X46, 6, 46);
        Err(backend)
    }

    /// Erased shared view of the session behind a (current-generation)
    /// handle.
    pub(crate) fn backend(&self, handle: Handle) -> Option<&dyn SessionBackend> {
        with_pool!(self, handle.pool, p => {
            p.get(handle.index, handle.generation)
                .and_then(|slot| slot.payload.as_ref().map(|b| b.as_backend()))
        })
    }

    /// Bookkeeping of the session behind a handle.
    pub(crate) fn meta(&self, handle: Handle) -> Option<&SlotMeta> {
        with_pool!(self, handle.pool, p => {
            p.get(handle.index, handle.generation).map(|slot| &slot.meta)
        })
    }

    /// Mutable bookkeeping of the session behind a handle.
    pub(crate) fn meta_mut(&mut self, handle: Handle) -> Option<&mut SlotMeta> {
        with_pool_mut!(self, handle.pool, p => {
            p.get_mut(handle.index, handle.generation).map(|slot| &mut slot.meta)
        })
    }

    /// Both views at once (meta + mutable backend) for the paths that
    /// update status from backend state.
    pub(crate) fn slot_mut(
        &mut self,
        handle: Handle,
    ) -> Option<(&mut SlotMeta, &mut dyn SessionBackend)> {
        with_pool_mut!(self, handle.pool, p => {
            p.get_mut(handle.index, handle.generation).and_then(|slot| {
                let backend = slot.payload.as_mut()?.as_backend_mut();
                Some((&mut slot.meta, backend))
            })
        })
    }

    /// Unseats `id`, re-boxing an inline mono core into a
    /// [`SmallFilterSession`]-equivalent backend. The slot goes on its
    /// pool's free list; the id's index entry is cleared in place.
    pub(crate) fn remove(&mut self, id: u64) -> Option<Box<dyn SessionBackend>> {
        let handle = self.index.get(id)?;
        let failed = !self.meta(handle)?.status.is_active();
        let payload = with_pool_mut!(self, handle.pool, p => {
            p.take(handle.index, handle.generation).map(|payload| payload.boxed())
        })?;
        self.index.clear(id);
        self.len -= 1;
        self.failed -= usize::from(failed);
        Some(payload)
    }

    /// Empties the store, returning every `(id, backend)` in pool-scan
    /// order (typed pools first, each in slot order, then overflow).
    pub(crate) fn drain(&mut self) -> Vec<(u64, Box<dyn SessionBackend>)> {
        let mut out = Vec::with_capacity(self.len);
        self.p2x3.drain_into(&mut out);
        self.p6x46.drain_into(&mut out);
        self.overflow.drain_into(&mut out);
        self.index.reset();
        self.len = 0;
        self.failed = 0;
        out
    }

    /// Visits every seated session in pool-scan order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&SlotMeta, &dyn SessionBackend)) {
        each_pool!(self, p => {
            for slot in &p.slots {
                if let Some(payload) = &slot.payload {
                    f(&slot.meta, payload.as_backend());
                }
            }
        });
    }

    /// Visits every seated session with its handle, in pool-scan order.
    pub(crate) fn for_each_handle(
        &self,
        mut f: impl FnMut(Handle, &SlotMeta, &dyn SessionBackend),
    ) {
        let mut kind = 0u8;
        each_pool!(self, p => {
            for (i, slot) in p.slots.iter().enumerate() {
                if let Some(payload) = &slot.payload {
                    f(
                        Handle {
                            pool: kind,
                            index: i as u32,
                            generation: slot.meta.generation,
                        },
                        &slot.meta,
                        payload.as_backend(),
                    );
                }
            }
            kind += 1;
        });
        let _ = kind;
    }

    /// Appends the handle of every seated session to `out` (pool-scan
    /// order) — the dense-dispatch work list, reusing the caller's buffer.
    pub(crate) fn collect_handles(&self, out: &mut Vec<Handle>) {
        self.for_each_handle(|handle, _, _| out.push(handle));
    }

    /// Per-pool occupancy counts.
    pub(crate) fn census(&self) -> StoreCensus {
        StoreCensus {
            mono_2x3: self.p2x3.occupied(),
            mono_6x46: self.p6x46.occupied(),
            overflow: self.overflow.occupied(),
            slots: self.p2x3.slots.len() + self.p6x46.slots.len() + self.overflow.slots.len(),
        }
    }

    /// Captures the per-pool base pointers for a raw dispatch (see
    /// [`with_slot_raw`] for the validity contract).
    pub(crate) fn pool_bases_mut(&mut self) -> PoolBases {
        [
            self.p2x3.slots.as_mut_ptr() as usize,
            self.p6x46.slots.as_mut_ptr() as usize,
            self.overflow.slots.as_mut_ptr() as usize,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalmmind::gain::InverseGain;
    use kalmmind::inverse::{CalcMethod, InterleavedInverse, SeedPolicy};
    use kalmmind::{FilterSession, KalmanFilter, KalmanModel, KalmanState};
    use kalmmind_linalg::Matrix;

    fn model() -> KalmanModel<f64> {
        KalmanModel::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
            Matrix::identity(2).scale(1e-3),
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap(),
            Matrix::identity(3).scale(0.2),
        )
        .unwrap()
    }

    fn mono_backend() -> Box<dyn SessionBackend> {
        let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
        let filter = KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat));
        kalmmind::small::try_small_session(filter).expect("2x3 monomorphizes")
    }

    fn dynamic_backend() -> Box<dyn SessionBackend> {
        let strat = InterleavedInverse::new(CalcMethod::Gauss, 2, 4, SeedPolicy::LastCalculated);
        let filter = KalmanFilter::new(model(), KalmanState::zeroed(2), InverseGain::new(strat));
        Box::new(FilterSession::new(filter))
    }

    #[test]
    fn mono_sessions_land_in_typed_pools_and_dynamics_in_overflow() {
        let mut store = SessionStore::new();
        let hm = store.seat(1, mono_backend());
        let hd = store.seat(2, dynamic_backend());
        assert_eq!(hm.pool, POOL_2X3);
        assert_eq!(hd.pool, POOL_OVERFLOW);
        let census = store.census();
        assert_eq!(census.mono_2x3, 1);
        assert_eq!(census.overflow, 1);
        assert_eq!(census.total(), 2);
        assert_eq!(store.backend(hm).unwrap().backend_name(), "software-mono");
        assert_eq!(store.backend(hd).unwrap().backend_name(), "software");
    }

    #[test]
    fn removed_mono_session_reseats_inline_after_round_trip() {
        let mut store = SessionStore::new();
        let h = store.seat(7, mono_backend());
        store.slot_mut(h).unwrap().1.step(&[0.1, 1.0, 1.1]).unwrap();
        let boxed = store.remove(7).expect("seated");
        assert_eq!(boxed.iteration(), 1);
        assert_eq!(boxed.backend_name(), "software-mono");
        // Re-seating what `remove` handed back must land inline again, with
        // the trajectory intact — the rebalance migration path.
        let h2 = store.seat(8, boxed);
        assert_eq!(h2.pool, POOL_2X3);
        assert_eq!(store.backend(h2).unwrap().iteration(), 1);
        assert_eq!(store.census().overflow, 0);
    }

    #[test]
    fn stale_handle_generation_is_rejected_after_slot_reuse() {
        let mut store = SessionStore::new();
        let h1 = store.seat(1, mono_backend());
        assert!(store.remove(1).is_some());
        // Slot vacant: the stale handle resolves to nothing.
        assert!(store.backend(h1).is_none());
        assert!(store.meta(h1).is_none());
        // Reuse the slot for a new session.
        let h2 = store.seat(2, mono_backend());
        assert_eq!(h2.index, h1.index, "free list must reuse the slot");
        assert_ne!(h2.generation, h1.generation, "reuse must bump generation");
        // The stale handle still resolves to nothing — never to session 2.
        assert!(store.backend(h1).is_none());
        assert!(store.meta(h1).is_none());
        assert!(store.slot_mut(h1).is_none());
        assert_eq!(store.meta(h2).unwrap().id, 2);
    }

    #[test]
    fn stale_handle_cannot_vacate_the_slots_new_tenant() {
        let mut store = SessionStore::new();
        let h1 = store.seat(1, mono_backend());
        store.remove(1).unwrap();
        let _h2 = store.seat(2, mono_backend());
        // `take` through the stale handle must not evict session 2.
        assert!(store.slot_mut(h1).is_none());
        assert_eq!(store.len(), 1);
        assert!(store.lookup(2).is_some());
    }

    #[test]
    fn ids_beyond_u32_go_through_the_outlier_tier() {
        let mut store = SessionStore::new();
        let big = (7u64 << 33) | 42;
        let h = store.seat(big, mono_backend());
        assert_eq!(store.lookup(big), Some(h));
        assert_eq!(store.meta(h).unwrap().id, big);
        assert!(store.remove(big).is_some());
        assert_eq!(store.lookup(big), None);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn handle_packing_round_trips() {
        for handle in [
            Handle {
                pool: 0,
                index: 0,
                generation: 1,
            },
            Handle {
                pool: POOL_OVERFLOW,
                index: u32::MAX,
                generation: GEN_MASK,
            },
            Handle {
                pool: POOL_6X46,
                index: 123_456,
                generation: 9_999,
            },
        ] {
            assert_eq!(Handle::unpack(handle.pack()), handle);
            assert_ne!(handle.pack(), 0);
        }
    }

    #[test]
    fn generation_wraps_skip_zero() {
        assert_eq!(next_generation(GEN_MASK), 1);
        assert_eq!(next_generation(1), 2);
    }

    #[test]
    fn drain_returns_everything_and_resets_the_index() {
        let mut store = SessionStore::new();
        store.seat(1, mono_backend());
        store.seat(2, dynamic_backend());
        store.seat(3, mono_backend());
        let drained = store.drain();
        assert_eq!(drained.len(), 3);
        let ids: Vec<u64> = drained.iter().map(|(id, _)| *id).collect();
        assert!(ids.contains(&1) && ids.contains(&2) && ids.contains(&3));
        assert_eq!(store.len(), 0);
        assert_eq!(store.lookup(1), None);
        assert_eq!(store.census().total(), 0);
    }
}
