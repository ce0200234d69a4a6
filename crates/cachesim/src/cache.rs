//! The bit-accurate functional hybrid cache.
//!
//! Every stored word (data and tag) is kept as a real EDC codeword
//! produced by the active code of the writing mode. Hard faults are
//! stuck-at bits overlaid on every read; soft errors are injected bit
//! flips. The decode path therefore exercises the actual
//! [`hyvec_edc`] machinery, counting corrections, detected
//! uncorrectable errors and — crucially for the unprotected baselines —
//! *silent corruptions*, where the delivered payload differs from what
//! was written without any error signal.

use crate::config::{CacheConfig, Mode, WaySpec};
use crate::stats::CacheStats;
use hyvec_edc::{Decoded, DectedCode, EdcCode, HsiaoCode, NoCode, Protection};

/// Stuck-at fault pattern for one stored word: where `mask` is set,
/// the cell always reads `value` regardless of what was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StuckBits {
    /// Bit positions that are hard-faulty.
    pub mask: u64,
    /// The values the faulty positions are stuck at.
    pub value: u64,
}

impl StuckBits {
    /// Applies the fault to a stored word as seen by a read.
    #[inline]
    pub fn apply(&self, stored: u64) -> u64 {
        (stored & !self.mask) | (self.value & self.mask)
    }

    /// Number of faulty bits.
    pub fn count(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Identifies one stored word inside a cache: data words are slots
/// `0..words_per_line`, the tag is the last slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordSlot {
    /// The way index.
    pub way: usize,
    /// The set index.
    pub set: u64,
    /// Word index within the line, or `words_per_line` for the tag.
    pub slot: u64,
}

/// Monomorphized codec dispatch: one `match` instead of a virtual
/// call per decode. The three arms cover every [`Protection`] level,
/// so the per-access hot loop never goes through a vtable. The coded
/// arms borrow the process-wide codes ([`HsiaoCode::shared`],
/// [`DectedCode::shared`]), so a cache owns no code tables.
#[derive(Debug, Clone)]
enum Codec {
    None(NoCode),
    Secded(&'static HsiaoCode),
    Dected(&'static DectedCode),
}

impl Codec {
    /// The codec for one way/width pair. Infallible by construction:
    /// [`CacheConfig::validate`] rejects any width/protection pair the
    /// code families cannot build (`ConfigError::UnsupportedWidth`),
    /// and every construction path validates before building codecs.
    fn build(protection: Protection, data_bits: usize) -> Self {
        match protection {
            Protection::None => Codec::None(NoCode::new(data_bits)),
            Protection::Secded => {
                Codec::Secded(
                    HsiaoCode::shared(data_bits)
                        // hyvec-lint: allow(no-panic, "width pre-checked by CacheConfig::validate, which gates every construction path")
                        .expect("validate() guarantees SECDED supports this width"),
                )
            }
            Protection::Dected => {
                Codec::Dected(
                    DectedCode::shared(data_bits)
                        // hyvec-lint: allow(no-panic, "width pre-checked by CacheConfig::validate, which gates every construction path")
                        .expect("validate() guarantees DECTED supports this width"),
                )
            }
        }
    }

    #[inline]
    fn encode(&self, data: u64) -> u64 {
        match self {
            Codec::None(c) => c.encode(data),
            Codec::Secded(c) => c.encode(data),
            Codec::Dected(c) => c.encode(data),
        }
    }

    #[inline]
    fn decode(&self, word: u64) -> Decoded {
        match self {
            Codec::None(c) => c.decode(word),
            Codec::Secded(c) => c.decode(word),
            Codec::Dected(c) => c.decode(word),
        }
    }
}

/// Per-way configuration and codecs. Line state lives in the flat
/// struct-of-arrays vectors on [`HybridCache`] itself.
#[derive(Debug)]
struct WayCodecs {
    spec: WaySpec,
    data_code_hp: Codec,
    data_code_ule: Codec,
    tag_code_hp: Codec,
    tag_code_ule: Codec,
}

impl WayCodecs {
    #[inline]
    fn data_code(&self, mode: Mode) -> &Codec {
        match mode {
            Mode::Hp => &self.data_code_hp,
            Mode::Ule => &self.data_code_ule,
        }
    }

    #[inline]
    fn tag_code(&self, mode: Mode) -> &Codec {
        match mode {
            Mode::Hp => &self.tag_code_hp,
            Mode::Ule => &self.tag_code_ule,
        }
    }
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Bit errors corrected by EDC during this access.
    pub corrected: u32,
    /// Detected uncorrectable errors during this access.
    pub detected: u32,
    /// Silent corruptions: payload delivered differs from what was
    /// written, with no error signalled (only possible without/beyond
    /// the protection).
    pub silent: u32,
    /// Whether a dirty victim was written back.
    pub writeback: bool,
}

/// The functional hybrid set-associative cache.
///
/// See the [module docs](self) for the storage model.
///
/// # Tiered access paths
///
/// [`HybridCache::access`] is a small inlined dispatcher between two
/// implementations with bit-identical counters:
///
/// * the **fast path** engages while the cache is *fault-free*
///   ([`HybridCache::is_fault_free`]): no stuck-at faults installed,
///   and every stored word holding its *canonical* codeword — the one
///   the active code produces for the payload its line's plain tag and
///   address own. Two events break that until the next flush: an
///   injected soft error, and a store that hits through a faulty tag
///   (a *false hit*: the tag decodes to the address's tag but the
///   line's plain tag differs), which writes one address's payload
///   into another address's line. While fault-free, tag decode is an
///   identity check, payload verification can never fail, and both
///   are skipped entirely: a lookup is a plain compare
///   over the set's slice of tags, and a hit touches only the LRU
///   stamp (plus the dirty bit on a store). A **same-line memo**
///   remembers the line address and flat line index of the last
///   fast-path hit or fill, so a repeat access to that line (most
///   instruction fetches) skips the index math and the scan too. Only
///   the hit is inlined into callers; a fast-path miss (victim choice
///   and fill) is an out-of-line call;
/// * the **slow path** runs the EDC decode/verify machinery the
///   moment any stuck-at fault is installed or a word may be
///   non-canonical (or when forced via
///   [`HybridCache::set_force_slow_path`], for equivalence tests and
///   benchmarks). While every word is canonical and the path is not
///   forced, it spends EDC only on words that can be faulty — those
///   with a stuck-at entry. Any other tag check is a plain compare,
///   and a load or store that truly hits (plain tag equal) such a
///   pristine word skips the decode and verify, or the re-encode.
///   False hits and faulty words keep the full decode, and a forced
///   slow path decodes every word. It sits behind one out-of-line
///   call, so its stack
///   frame is never paid on a fast hit, and every slow access clears
///   the memo: a slow refill after a tag fault can leave two ways of
///   a set holding the same plain tag, and only a scan knows which
///   match is the last one. [`HybridCache::set_mode`] clears it too.
///
/// Storage stays fully materialized in both tiers (fills and the
/// fault-free write path keep every word a real codeword), so the
/// cache can drop from fast to slow at any time — e.g. when
/// [`HybridCache::set_stuck_bits`] arms a fault mid-run — without any
/// re-encoding step.
///
/// # Storage layout
///
/// Line state is struct-of-arrays: `dirty`/`tags`/`tag_words`/
/// `lru_stamps` are flat vectors indexed by `(way, set)` through the
/// private `line_index` helper (set-major, so the ways of one set are
/// contiguous and a lookup or victim scan walks a cache-friendly
/// slice), and all data codewords live in one flat `words` arena at
/// `line_index * words_per_line + slot`. There is no per-line heap
/// allocation and no valid bit: an invalid line holds the sentinel
/// plain tag `u64::MAX`, which no tag masked to at most 63 bits (the
/// limit [`CacheConfig::validate`] enforces) can equal, so the fast
/// lookup reads one vector. A valid line always sits in a way enabled
/// in the current mode — a mode switch invalidates every line and
/// fills go only to enabled ways — so lookups skip the enable test as
/// well. A per-line `fault_masks` bitmask (bit `s` = word slot `s`
/// has a stuck-at entry, saturating at bit 63) lets the read path
/// skip the fault probe for the common pristine word; the faults
/// themselves live in short per-line `(slot, bits)` lists rather than
/// a hash map, so even a faulty word costs a one-or-two entry linear
/// scan instead of a hash.
#[derive(Debug)]
pub struct HybridCache {
    config: CacheConfig,
    /// Per-way specs and codecs, in way order.
    ways: Vec<WayCodecs>,
    num_ways: usize,
    words_per_line: usize,
    /// `log2(line_bytes)` — the geometry is validated power-of-two,
    /// so indexing is shifts and masks, never division.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    /// `(1 << tag_bits) - 1`.
    tag_mask: u64,
    /// `log2(word_bytes)` when the word size is a power of two (the
    /// common case); `None` falls back to division.
    word_shift: Option<u32>,
    /// SoA line state; see the type docs for the layout.
    dirty: Vec<bool>,
    /// Plain (unencoded) tags, compared directly by the fast path, or
    /// [`INVALID_TAG`] for an invalid line; in a fault-free cache the
    /// stored codeword of a valid line decodes back to exactly this
    /// value.
    tags: Vec<u64>,
    /// Stored tag codewords (as written, before faults).
    tag_words: Vec<u64>,
    lru_stamps: Vec<u64>,
    /// Flat data-codeword arena.
    words: Vec<u64>,
    /// Per-line bitmask of word slots with stuck-at entries.
    fault_masks: Vec<u64>,
    /// Which ways participate in the current mode (recomputed on mode
    /// switches); only victim choice needs it.
    enabled_now: Vec<bool>,
    /// The first enabled way and one past the last, in the current
    /// mode (recomputed on mode switches). Every valid line sits in
    /// between, so the fast lookup scans only these ways: one at ULE
    /// in a design with one ULE way.
    enabled_span: (usize, usize),
    /// Per-way: the active tag codec is [`Protection::None`]
    /// (recomputed on mode switches). A plain way's tag decode is a
    /// mask-and-compare, so the slow path never touches the (large)
    /// codec structs for it.
    tag_plain_now: Vec<bool>,
    /// Per-way: the active data codec is [`Protection::None`].
    data_plain_now: Vec<bool>,
    /// `mask_low(_, word_bits)` as a mask — the identity an
    /// unprotected data codec applies on encode and decode.
    word_mask: u64,
    /// Stuck-at faults per line, each a short list sorted by slot.
    /// Lines are overwhelmingly fault-free (gated by `fault_masks`),
    /// and a faulty line rarely carries more than a couple of entries,
    /// so a linear probe beats a hash map on the slow path.
    faults: Vec<Vec<(u64, StuckBits)>>,
    /// Total installed fault entries across all lines (the
    /// `is_fault_free` gate, without walking `faults`).
    fault_entries: usize,
    mode: Mode,
    lru_clock: u64,
    stats: CacheStats,
    /// Whether some stored word may not hold its canonical codeword:
    /// a soft error was injected, or a store hit a line through a
    /// faulty tag, since the last flush (conservative: cleared only by
    /// [`HybridCache::set_mode`], which invalidates every line such a
    /// word could still live in).
    noncanonical: bool,
    /// Diagnostic override: route every access through the slow path
    /// even when fault-free.
    force_slow: bool,
    /// The same-line memo: line address (`addr >> line_shift`) and
    /// flat line index of the last fast-path hit or fill. Cleared by
    /// every slow access and by [`HybridCache::set_mode`].
    memo: Option<(u64, usize)>,
}

/// The plain tag of an invalid line. [`CacheConfig::validate`] caps
/// `tag_bits` at 63, so no masked tag can equal it.
const INVALID_TAG: u64 = u64::MAX;

/// The first `true` of `enabled` and one past the last.
/// [`CacheConfig::validate`] guarantees an enabled way in every mode.
fn span_of(enabled: &[bool]) -> (usize, usize) {
    let first = enabled.iter().position(|&e| e).unwrap_or(0);
    let end = enabled.iter().rposition(|&e| e).map_or(first, |w| w + 1);
    (first, end)
}

/// The deterministic payload written for a given word address; reads
/// are checked against it to expose silent corruption.
#[inline]
pub fn value_for(word_addr: u64) -> u64 {
    // splitmix64 finalizer, truncated to 32 bits.
    let mut z = word_addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF
}

impl HybridCache {
    /// Builds an empty cache in the given mode.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CacheConfig::validate`]). Use [`HybridCache::try_new`] to
    /// handle the error instead.
    pub fn new(config: CacheConfig, mode: Mode) -> Self {
        match HybridCache::try_new(config, mode) {
            Ok(cache) => cache,
            // hyvec-lint: allow(no-panic, "documented panicking shim; HybridCache::try_new is the fallible path")
            Err(e) => panic!("invalid cache config: {e}"),
        }
    }

    /// Builds an empty cache in the given mode, reporting an invalid
    /// geometry instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`CacheConfig`] invariant.
    pub fn try_new(config: CacheConfig, mode: Mode) -> Result<Self, crate::config::ConfigError> {
        config.validate()?;
        let sets = config.sets() as usize;
        let words_per_line = config.words_per_line() as usize;
        let ways: Vec<WayCodecs> = config
            .ways
            .iter()
            .map(|spec| WayCodecs {
                spec: *spec,
                data_code_hp: Codec::build(spec.protection_hp, config.word_bits as usize),
                data_code_ule: Codec::build(spec.protection_ule, config.word_bits as usize),
                tag_code_hp: Codec::build(spec.protection_hp, config.tag_bits as usize),
                tag_code_ule: Codec::build(spec.protection_ule, config.tag_bits as usize),
            })
            .collect();
        let num_ways = ways.len();
        let lines = sets * num_ways;
        let enabled_now: Vec<bool> = ways.iter().map(|w| w.spec.enabled(mode)).collect();
        let enabled_span = span_of(&enabled_now);
        let tag_plain_now = ways
            .iter()
            .map(|w| matches!(w.tag_code(mode), Codec::None(_)))
            .collect();
        let data_plain_now = ways
            .iter()
            .map(|w| matches!(w.data_code(mode), Codec::None(_)))
            .collect();
        let word_mask = if config.word_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << config.word_bits) - 1
        };
        // `validate()` guarantees power-of-two line bytes and sets, so
        // the per-access index math compiles down to shifts and masks.
        let line_shift = config.line_bytes.trailing_zeros();
        let set_shift = config.sets().trailing_zeros();
        let set_mask = config.sets() - 1;
        // `validate()` caps `tag_bits` at 63, so the shift cannot
        // overflow and the mask leaves `INVALID_TAG` unreachable.
        let tag_mask = (1u64 << config.tag_bits) - 1;
        let word_bytes = u64::from(config.word_bits) / 8;
        let word_shift = word_bytes
            .is_power_of_two()
            .then(|| word_bytes.trailing_zeros());
        Ok(HybridCache {
            config,
            ways,
            num_ways,
            words_per_line,
            line_shift,
            set_shift,
            set_mask,
            tag_mask,
            word_shift,
            dirty: vec![false; lines],
            tags: vec![INVALID_TAG; lines],
            tag_words: vec![0; lines],
            lru_stamps: vec![0; lines],
            words: vec![0; lines * words_per_line],
            fault_masks: vec![0; lines],
            enabled_now,
            enabled_span,
            tag_plain_now,
            data_plain_now,
            word_mask,
            faults: vec![Vec::new(); lines],
            fault_entries: 0,
            mode,
            lru_clock: 0,
            stats: CacheStats::default(),
            noncanonical: false,
            force_slow: false,
            memo: None,
        })
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Flat index of `(way, set)` into the struct-of-arrays line
    /// state: set-major, so one set's ways are contiguous.
    #[inline]
    fn line_index(&self, way: usize, set: u64) -> usize {
        set as usize * self.num_ways + way
    }

    /// Whether flat line `li` holds a line (see [`INVALID_TAG`]).
    #[inline]
    fn is_valid(&self, li: usize) -> bool {
        self.tags[li] != INVALID_TAG
    }

    /// The bit `slot` occupies in a line's fault mask. Slots past 63
    /// share the top bit, which then conservatively means "probe the
    /// fault map".
    #[inline]
    fn fault_mask_bit(slot: u64) -> u64 {
        1u64 << slot.min(63)
    }

    /// The flat line index of `slot`, after checking that `slot`
    /// names a stored word of this geometry and that a fault spanning
    /// its low `span` bits stays within that word's stored width: its
    /// payload plus the check bits its way stores. The one rule behind
    /// both fault-injection entry points.
    ///
    /// # Panics
    ///
    /// Panics if the way, set or word slot is out of range, or `span`
    /// exceeds the stored width.
    fn fault_target(&self, slot: WordSlot, span: u32) -> usize {
        let words = self.words_per_line as u64;
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics) of set_stuck_bits and inject_soft_error")
        assert!(
            slot.way < self.num_ways && slot.set < self.config.sets() && slot.slot <= words,
            "{slot:?} is out of range for {} ways x {} sets x {} words plus the tag",
            self.num_ways,
            self.config.sets(),
            words
        );
        let payload = if slot.slot == words {
            self.config.tag_bits
        } else {
            self.config.word_bits
        };
        let width = payload + self.ways[slot.way].spec.stored_check_bits() as u32;
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics) of set_stuck_bits and inject_soft_error")
        assert!(
            span <= width,
            "a fault over {span} bits overruns the {width}-bit stored word of {slot:?}"
        );
        self.line_index(slot.way, slot.set)
    }

    /// Installs a stuck-at fault pattern on one stored word.
    ///
    /// # Panics
    ///
    /// Panics if the slot's way, set or word is out of range for this
    /// geometry, or the mask reaches past the word's stored width (its
    /// payload plus the check bits its way stores).
    pub fn set_stuck_bits(&mut self, slot: WordSlot, faults: StuckBits) {
        let li = self.fault_target(slot, u64::BITS - faults.mask.leading_zeros());
        let entries = &mut self.faults[li];
        let existing = entries.iter().position(|&(s, _)| s == slot.slot);
        if faults.mask == 0 {
            if let Some(i) = existing {
                entries.remove(i);
                self.fault_entries -= 1;
            }
            // Rebuild this line's slot mask from the surviving entries.
            let mut mask = 0u64;
            for &(s, _) in entries.iter() {
                mask |= Self::fault_mask_bit(s);
            }
            self.fault_masks[li] = mask;
        } else {
            match existing {
                Some(i) => entries[i].1 = faults,
                None => {
                    entries.push((slot.slot, faults));
                    entries.sort_unstable_by_key(|&(s, _)| s);
                    self.fault_entries += 1;
                }
            }
            self.fault_masks[li] |= Self::fault_mask_bit(slot.slot);
        }
    }

    /// Number of faulty bits currently installed.
    pub fn fault_bit_count(&self) -> u64 {
        self.faults
            .iter()
            .flatten()
            .map(|&(_, f)| u64::from(f.count()))
            .sum()
    }

    /// Whether every stored word is guaranteed pristine: no stuck-at
    /// faults installed, and since the last flush neither a soft error
    /// injected nor a store made through a faulty tag (a false hit,
    /// which leaves one address's payload in another address's line).
    /// While this holds, [`HybridCache::access`] runs the EDC-free
    /// fast path (see the type docs).
    pub fn is_fault_free(&self) -> bool {
        self.fault_entries == 0 && !self.noncanonical
    }

    /// Forces every access through the full EDC slow path even when
    /// the cache is fault-free. Counters are bit-identical either way
    /// (asserted by the equivalence property suite in
    /// `tests/fastpath.rs`); this knob exists so those tests, and the
    /// CLI's `--force-slow-path`, can run the armed slow path against
    /// the fast path on the same fault-free workload.
    /// [`SystemBuilder::options`](crate::engine::SystemBuilder::options)
    /// sets it on every L1 a build creates.
    pub fn set_force_slow_path(&mut self, force: bool) {
        self.force_slow = force;
    }

    pub(crate) fn fast_path_ready(&self) -> bool {
        !self.force_slow && self.fault_entries == 0 && !self.noncanonical
    }

    /// Flips one stored bit (a soft error / SEU). The flip lands in
    /// the *stored* word, so a later rewrite clears it.
    ///
    /// # Panics
    ///
    /// Panics under the same rule as [`HybridCache::set_stuck_bits`]:
    /// if the slot's way, set or word is out of range, or `bit` lies
    /// past the word's stored width.
    pub fn inject_soft_error(&mut self, slot: WordSlot, bit: u32) {
        let li = self.fault_target(slot, bit.saturating_add(1));
        let flip = 1u64 << bit;
        if slot.slot as usize == self.words_per_line {
            self.tag_words[li] ^= flip;
        } else {
            self.words[li * self.words_per_line + slot.slot as usize] ^= flip;
        }
        self.noncanonical = true;
    }

    /// Switches operating mode, flushing the cache (dirty lines are
    /// written back) — the Vcc transition invalidates HP ways anyway
    /// and re-encodes would otherwise be needed where the protection
    /// level changes.
    ///
    /// Returns the number of lines written back.
    pub fn set_mode(&mut self, mode: Mode) -> u64 {
        let mut writebacks = 0;
        for (tag, dirty) in self.tags.iter_mut().zip(self.dirty.iter_mut()) {
            if *tag != INVALID_TAG && *dirty {
                writebacks += 1;
            }
            *tag = INVALID_TAG;
            *dirty = false;
        }
        self.memo = None;
        self.stats.writebacks += writebacks;
        self.mode = mode;
        for (enabled, way) in self.enabled_now.iter_mut().zip(&self.ways) {
            *enabled = way.spec.enabled(mode);
        }
        self.enabled_span = span_of(&self.enabled_now);
        for (plain, way) in self.tag_plain_now.iter_mut().zip(&self.ways) {
            *plain = matches!(way.tag_code(mode), Codec::None(_));
        }
        for (plain, way) in self.data_plain_now.iter_mut().zip(&self.ways) {
            *plain = matches!(way.data_code(mode), Codec::None(_));
        }
        // Every line a past soft error or false-hit store could have
        // left non-canonical is now invalid, and a fill rewrites the
        // whole line (tag included), so those words can never be
        // observed again.
        self.noncanonical = false;
        writebacks
    }

    /// The payload a clean read of the word at `word_addr` must
    /// deliver: the deterministic value truncated to the configured
    /// word width (the encoder ignores bits above `word_bits`).
    fn expected_payload(&self, word_addr: u64) -> u64 {
        let bits = self.config.word_bits;
        if bits >= 64 {
            value_for(word_addr)
        } else {
            value_for(word_addr) & ((1u64 << bits) - 1)
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> (u64, u64) {
        let line_addr = addr >> self.line_shift;
        let set = line_addr & self.set_mask;
        let tag = (line_addr >> self.set_shift) & self.tag_mask;
        (set, tag)
    }

    /// Splits `addr` into the word's slot within its line and the
    /// word-aligned byte address, dividing only when the word size is
    /// not a power of two.
    #[inline]
    fn word_slot_and_addr(&self, addr: u64) -> (u64, u64) {
        let offset = addr & (self.config.line_bytes - 1);
        match self.word_shift {
            Some(s) => (offset >> s, (addr >> s) << s),
            None => {
                let word_bytes = u64::from(self.config.word_bits) / 8;
                (offset / word_bytes, addr / word_bytes * word_bytes)
            }
        }
    }

    /// Applies any stuck-at fault installed at `(li, slot)` to the raw
    /// stored word. The per-line slot mask filters out the
    /// overwhelmingly common pristine case before the (short, linear)
    /// fault-list probe.
    #[inline]
    fn apply_faults(&self, li: usize, slot: u64, raw: u64) -> u64 {
        if self.fault_masks[li] & Self::fault_mask_bit(slot) != 0 {
            if let Some(&(_, f)) = self.faults[li].iter().find(|&&(s, _)| s == slot) {
                return f.apply(raw);
            }
        }
        raw
    }

    /// Reads one stored word through the fault layer, addressed as a
    /// [`WordSlot`] (tests exercise the fault plumbing through this;
    /// the hot paths index the arenas directly).
    #[cfg(test)]
    fn read_stored(&self, slot: WordSlot) -> u64 {
        let li = self.line_index(slot.way, slot.set);
        let raw = if slot.slot as usize == self.words_per_line {
            self.tag_words[li]
        } else {
            self.words[li * self.words_per_line + slot.slot as usize]
        };
        self.apply_faults(li, slot.slot, raw)
    }

    /// Whether the word at `(li, slot)` reads back as its canonical
    /// codeword: `canonical` holds (every stored word is canonical and
    /// the slow path is not forced) and the word has no stuck-at
    /// entry. Its decode is then known without running it.
    #[inline]
    fn pristine(&self, canonical: bool, li: usize, slot: u64) -> bool {
        canonical && self.fault_masks[li] & Self::fault_mask_bit(slot) == 0
    }

    /// Looks up `addr`, returning the hit way if any, and counts tag
    /// EDC activity. Valid lines all sit in enabled ways (see the type
    /// docs), so only invalid lines are skipped. With `canonical` set,
    /// a pristine tag word is compared by its plain tag: its canonical
    /// codeword decodes cleanly to exactly that value.
    fn lookup(&self, set: u64, tag: u64, canonical: bool) -> (Option<usize>, u32, u32) {
        let mode = self.mode;
        let tag_slot = self.words_per_line as u64;
        let base = set as usize * self.num_ways;
        let mut corrected = 0;
        let mut detected = 0;
        let mut hit_way = None;
        for w in 0..self.num_ways {
            if !self.is_valid(base + w) {
                continue;
            }
            if self.pristine(canonical, base + w, tag_slot) {
                if self.tags[base + w] == tag {
                    hit_way = Some(w);
                }
                continue;
            }
            let stored = self.apply_faults(base + w, tag_slot, self.tag_words[base + w]);
            if self.tag_plain_now[w] {
                // Unprotected tag: decode is a mask, so skip the codec
                // struct and compare in place.
                if stored & self.tag_mask == tag {
                    hit_way = Some(w);
                }
                continue;
            }
            match self.ways[w].tag_code(mode).decode(stored) {
                Decoded::Clean { data } => {
                    if data == tag {
                        hit_way = Some(w);
                    }
                }
                Decoded::Corrected { data, errors } => {
                    corrected += errors;
                    if data == tag {
                        hit_way = Some(w);
                    }
                }
                Decoded::Detected { .. } => {
                    // Tag unreadable: conservatively a mismatch.
                    detected += 1;
                }
            }
        }
        (hit_way, corrected, detected)
    }

    /// Performs one access. `addr` is a byte address; writes store the
    /// deterministic payload for the word, reads verify it.
    ///
    /// Dispatches between the fault-free fast path and the full EDC
    /// slow path (see the type docs); the two produce bit-identical
    /// counters and outcomes whenever both are applicable.
    // `always`, not a hint: the engine calls this from three sites per
    // instruction, and under a plain `#[inline]` LLVM kept one
    // out-of-line copy, which put a call back on every hit.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.lru_clock += 1;
        self.stats.accesses += 1;
        self.stats.writes += u64::from(is_write);
        if self.fast_path_ready() {
            self.access_fast(addr, is_write)
        } else {
            self.access_slow(addr, is_write)
        }
    }

    /// The fault-free fast path: no stored word can decode to anything
    /// but the value written, so tag matching is a plain compare and
    /// payload verification is skipped. Counters move exactly as in
    /// [`HybridCache::access_slow`]: a fault-free slow access always
    /// yields `corrected == detected == silent == 0`. Inlined into
    /// [`HybridCache::access`], and from there into every caller.
    #[inline(always)]
    fn access_fast(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let line_addr = addr >> self.line_shift;
        let li = match self.memo {
            Some((line, li)) if line == line_addr => li,
            _ => {
                let set = line_addr & self.set_mask;
                let tag = (line_addr >> self.set_shift) & self.tag_mask;
                let (first, end) = self.enabled_span;
                let base = set as usize * self.num_ways + first;
                // Last match wins, mirroring the slow lookup's scan
                // order: a slow refill can leave duplicate plain tags.
                // A fixed-trip pass with no early exit compiles to
                // selects, not to a branch per way.
                let mut hit = None;
                for (w, &t) in self.tags[base..base + end - first].iter().enumerate() {
                    if t == tag {
                        hit = Some(w);
                    }
                }
                let Some(w) = hit else {
                    return self.miss_fast(addr, is_write);
                };
                self.memo = Some((line_addr, base + w));
                base + w
            }
        };
        self.stats.hits += 1;
        // The stored word already holds the encoded deterministic
        // payload (the fill materialized it, and a fault-free store
        // would rewrite the identical codeword), so only the dirty bit
        // moves.
        self.dirty[li] |= is_write;
        self.lru_stamps[li] = self.lru_clock;
        AccessOutcome {
            hit: true,
            ..AccessOutcome::default()
        }
    }

    /// The fast path's miss: victim choice and fill, kept out of line
    /// so callers inline only the hit.
    #[inline(never)]
    fn miss_fast(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let (set, tag) = self.index(addr);
        self.stats.misses += 1;
        let way = self.choose_victim(set);
        let writeback = self.fill(way, set, tag, addr);
        let li = self.line_index(way, set);
        if is_write {
            self.dirty[li] = true;
        }
        self.memo = Some((addr >> self.line_shift, li));
        AccessOutcome {
            writeback,
            ..AccessOutcome::default()
        }
    }

    /// The EDC path: decode candidate tags, decode and verify loaded
    /// payloads, re-encode stores — skipping each of these for a
    /// pristine word, whose outcome is known (see the type docs). Out
    /// of line, so its stack frame stays off the fast hit.
    #[inline(never)]
    fn access_slow(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        // Only a scan knows which of a set's duplicate plain tags (a
        // slow refill after a tag fault leaves them) is the last match.
        self.memo = None;
        let (set, tag) = self.index(addr);
        // Both the word slot and the verified payload address derive
        // from the configured word width (the same slot the fill wrote
        // with `value_for`).
        let (word_idx, word_addr) = self.word_slot_and_addr(addr);
        let mode = self.mode;
        let canonical = !self.noncanonical && !self.force_slow;
        let (hit_way, mut corrected, mut detected) = self.lookup(set, tag, canonical);
        let mut outcome = AccessOutcome::default();

        let way = match hit_way {
            Some(w) => {
                self.stats.hits += 1;
                outcome.hit = true;
                w
            }
            None => {
                self.stats.misses += 1;
                let victim = self.choose_victim(set);
                outcome.writeback = self.fill(victim, set, tag, addr);
                victim
            }
        };

        let li = self.line_index(way, set);
        // On a true hit (or a fill) the line's own plain tag matches,
        // so a pristine word already holds the canonical codeword of
        // this address's payload: a store would rewrite it unchanged,
        // and a load would decode it cleanly to the expected payload.
        let known = self.tags[li] == tag && self.pristine(canonical, li, word_idx);
        if is_write {
            if self.tags[li] != tag {
                // A false hit: this address's payload lands in another
                // address's line, which later reads must see.
                self.noncanonical = true;
            }
            if !known {
                // Store: encode the new payload with the active code.
                // An unprotected way's encode is just the word mask.
                let encoded = if self.data_plain_now[way] {
                    value_for(word_addr) & self.word_mask
                } else {
                    self.ways[way].data_code(mode).encode(value_for(word_addr))
                };
                self.words[li * self.words_per_line + word_idx as usize] = encoded;
            }
            self.dirty[li] = true;
        } else if !known {
            // Load: decode through faults and verify the payload —
            // truncated to the stored word width, exactly as the
            // encoder stored it.
            let expected = self.expected_payload(word_addr);
            let raw = self.words[li * self.words_per_line + word_idx as usize];
            let stored = self.apply_faults(li, word_idx, raw);
            if self.data_plain_now[way] {
                // Unprotected data: decode is the word mask, and every
                // read is clean by construction.
                if stored & self.word_mask != expected {
                    outcome.silent += 1;
                }
            } else {
                match self.ways[way].data_code(mode).decode(stored) {
                    Decoded::Clean { data } => {
                        if data != expected {
                            outcome.silent += 1;
                        }
                    }
                    Decoded::Corrected { data, errors } => {
                        corrected += errors;
                        if data != expected {
                            outcome.silent += 1;
                        }
                    }
                    Decoded::Detected { .. } => {
                        detected += 1;
                    }
                }
            }
        }
        self.lru_stamps[li] = self.lru_clock;

        outcome.corrected = corrected;
        outcome.detected = detected;
        self.stats.corrected += u64::from(corrected);
        self.stats.detected += u64::from(detected);
        self.stats.silent_corruptions += u64::from(outcome.silent);
        outcome
    }

    /// Picks the eviction victim among the ways enabled in the current
    /// mode: the first invalid line, else the least-recently-used one.
    ///
    /// Ties on the LRU stamp are broken toward the **lowest-index
    /// enabled way**. The strictly-increasing access clock never
    /// stamps two valid lines equally on its own, but staged states
    /// (tests, future bulk-load paths) can — so the choice is pinned
    /// explicitly rather than left to the scan order.
    fn choose_victim(&self, set: u64) -> usize {
        let base = set as usize * self.num_ways;
        let mut best: Option<(usize, u64)> = None;
        for w in 0..self.num_ways {
            if !self.enabled_now[w] {
                continue;
            }
            if !self.is_valid(base + w) {
                return w;
            }
            let stamp = self.lru_stamps[base + w];
            let strictly_older = match best {
                None => true,
                // `<`, not `<=`: on equal stamps the earlier
                // (lowest-index) enabled way stays the victim.
                Some((_, best_lru)) => stamp < best_lru,
            };
            if strictly_older {
                best = Some((w, stamp));
            }
        }
        // hyvec-lint: allow(no-panic, "validate() guarantees every mode has an enabled way: HP enables all, ULE is gated by NoUleWay")
        best.expect("at least one enabled way").0
    }

    /// Fills `(set, tag)` into `way`, returning whether a dirty victim
    /// was evicted.
    fn fill(&mut self, way: usize, set: u64, tag: u64, addr: u64) -> bool {
        let mode = self.mode;
        let line_base = (addr >> self.line_shift) << self.line_shift;
        let word_bytes = u64::from(self.config.word_bits) / 8;
        let li = self.line_index(way, set);
        let data_code = self.ways[way].data_code(mode);
        let start = li * self.words_per_line;
        for (i, word) in self.words[start..start + self.words_per_line]
            .iter_mut()
            .enumerate()
        {
            let word_addr = line_base + i as u64 * word_bytes;
            *word = data_code.encode(value_for(word_addr));
        }
        let writeback = self.is_valid(li) && self.dirty[li];
        self.tags[li] = tag;
        self.tag_words[li] = self.ways[way].tag_code(mode).encode(tag);
        self.dirty[li] = false;
        self.lru_stamps[li] = self.lru_clock;
        self.stats.fills += 1;
        if writeback {
            self.stats.writebacks += 1;
        }
        writeback
    }

    /// Number of ways enabled in the current mode.
    pub fn enabled_ways(&self) -> usize {
        self.enabled_now.iter().filter(|&&e| e).count()
    }
}

// The multi-core engine can run each core's L1 pair on a scoped
// worker thread; this pins the `Send` bound at compile time so
// a non-`Send` field (an `Rc`, a raw pointer) added later fails here,
// next to the type, rather than deep inside the thread scope.
const fn assert_send<T: Send>() {}
const _: () = assert_send::<HybridCache>();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use hyvec_edc::Protection;
    use hyvec_sram::CellKind;

    fn cache() -> HybridCache {
        HybridCache::new(SystemConfig::uniform_6t().il1, Mode::Hp)
    }

    fn hybrid_a_proposal() -> HybridCache {
        let mut ways = vec![crate::config::WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(crate::config::WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        HybridCache::new(CacheConfig::l1_8kb(ways), Mode::Ule)
    }

    use crate::config::CacheConfig;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache();
        let out = c.access(0x1000, false);
        assert!(!out.hit);
        let out = c.access(0x1004, false);
        assert!(out.hit, "same line must hit");
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = cache();
        c.access(0x0, false);
        c.access(32, false); // next set
        assert_eq!(c.stats().misses, 2);
        assert!(c.access(0x0, false).hit);
        assert!(c.access(32, false).hit);
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut c = cache();
        let sets = c.config().sets();
        let line = c.config().line_bytes;
        // Fill all 8 ways of set 0.
        for i in 0..8u64 {
            c.access(i * sets * line, false);
        }
        // Touch way of line 0 to refresh it.
        c.access(0, false);
        // A ninth line evicts the LRU (line 1, not line 0).
        c.access(8 * sets * line, false);
        assert!(c.access(0, false).hit, "refreshed line must survive");
        assert!(!c.access(sets * line, false).hit, "LRU line must be gone");
    }

    #[test]
    fn ule_mode_uses_only_ule_ways() {
        let mut c = hybrid_a_proposal();
        assert_eq!(c.enabled_ways(), 1);
        let sets = c.config().sets();
        let line = c.config().line_bytes;
        // Two conflicting lines thrash a single way.
        c.access(0, false);
        c.access(sets * line, false);
        assert!(!c.access(0, false).hit, "direct-mapped ULE way must evict");
    }

    #[test]
    fn writes_mark_dirty_and_cause_writebacks() {
        let mut c = hybrid_a_proposal();
        let sets = c.config().sets();
        let line = c.config().line_bytes;
        c.access(0, true); // miss + fill + dirty
        c.access(4, false); // a load hit keeps the line dirty
        let out = c.access(sets * line, false); // evicts dirty line
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().writes, 1, "one store among three accesses");
    }

    #[test]
    fn clean_cache_delivers_correct_payloads() {
        let mut c = cache();
        for addr in (0..4096).step_by(4) {
            let out = c.access(addr, false);
            assert_eq!(out.silent, 0);
            assert_eq!(out.detected, 0);
        }
        assert_eq!(c.stats().silent_corruptions, 0);
    }

    #[test]
    fn secded_corrects_a_stuck_bit() {
        let mut c = hybrid_a_proposal();
        c.access(0, false); // fill set 0 into way 7
                            // Fault bit 3 of data word 0 in the ULE way, stuck at the
                            // wrong value.
        let slot = WordSlot {
            way: 7,
            set: 0,
            slot: 0,
        };
        let stored = c.read_stored(slot);
        c.set_stuck_bits(
            slot,
            StuckBits {
                mask: 1 << 3,
                value: !stored & (1 << 3),
            },
        );
        let out = c.access(0, false);
        assert!(out.hit);
        assert_eq!(out.corrected, 1, "SECDED must correct the stuck bit");
        assert_eq!(out.silent, 0);
        assert_eq!(c.stats().corrected, 1);
    }

    #[test]
    fn unprotected_stuck_bit_corrupts_silently() {
        // Baseline scenario A at ULE: 10T with no coding. A stuck bit
        // is delivered as wrong data with no signal — the failure mode
        // the paper's yield math must prevent by sizing.
        let mut ways = vec![crate::config::WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(crate::config::WaySpec::ule_way(
            CellKind::Sram10T,
            1.0,
            Protection::None,
            Protection::None,
        ));
        let mut c = HybridCache::new(CacheConfig::l1_8kb(ways), Mode::Ule);
        c.access(0, false);
        let slot = WordSlot {
            way: 7,
            set: 0,
            slot: 0,
        };
        let stored = c.read_stored(slot);
        c.set_stuck_bits(
            slot,
            StuckBits {
                mask: 1 << 5,
                value: !stored & (1 << 5),
            },
        );
        let out = c.access(0, false);
        assert!(out.hit);
        assert_eq!(out.silent, 1, "unprotected fault must corrupt silently");
        assert_eq!(out.corrected, 0);
    }

    #[test]
    fn dected_corrects_hard_fault_plus_soft_error() {
        // Scenario B at ULE: 8T + DECTED handles a stuck bit AND a
        // soft error in the same word — the paper's justification for
        // DECTED.
        let mut ways = vec![crate::config::WaySpec::hp_way(1.0, Protection::Secded); 7];
        ways.push(crate::config::WaySpec::ule_way(
            CellKind::Sram8T,
            1.9,
            Protection::Secded,
            Protection::Dected,
        ));
        let mut c = HybridCache::new(CacheConfig::l1_8kb(ways), Mode::Ule);
        c.access(0, false);
        let slot = WordSlot {
            way: 7,
            set: 0,
            slot: 0,
        };
        let stored = c.read_stored(slot);
        c.set_stuck_bits(
            slot,
            StuckBits {
                mask: 1 << 7,
                value: !stored & (1 << 7),
            },
        );
        c.inject_soft_error(slot, 19);
        let out = c.access(0, false);
        assert!(out.hit);
        assert_eq!(out.corrected, 2, "DECTED must fix hard+soft together");
        assert_eq!(out.silent, 0);
    }

    #[test]
    fn secded_detects_but_cannot_fix_double_fault() {
        let mut c = hybrid_a_proposal();
        c.access(0, false);
        let slot = WordSlot {
            way: 7,
            set: 0,
            slot: 0,
        };
        let stored = c.read_stored(slot);
        c.set_stuck_bits(
            slot,
            StuckBits {
                mask: (1 << 2) | (1 << 9),
                value: !stored & ((1 << 2) | (1 << 9)),
            },
        );
        let out = c.access(0, false);
        assert_eq!(out.detected, 1);
        assert_eq!(out.silent, 0, "detected errors are not silent");
    }

    #[test]
    fn mode_switch_flushes() {
        let mut c = hybrid_a_proposal();
        c.access(0, true);
        let wb = c.set_mode(Mode::Hp);
        assert_eq!(wb, 1, "dirty line written back on switch");
        assert!(!c.access(0, false).hit, "flush invalidates");
        assert_eq!(c.enabled_ways(), 8);
    }

    #[test]
    fn tag_faults_in_unprotected_way_cause_misses_not_lies() {
        let mut c = cache();
        c.access(0, false);
        let tag_slot = WordSlot {
            way: 0,
            set: 0,
            slot: c.config().words_per_line(),
        };
        // Find which way holds the line.
        let way = (0..8)
            .find(|&w| c.is_valid(c.line_index(w, 0)))
            .expect("line filled");
        let tag_slot = WordSlot { way, ..tag_slot };
        let stored = c.read_stored(tag_slot);
        c.set_stuck_bits(
            tag_slot,
            StuckBits {
                mask: 1,
                value: !stored & 1,
            },
        );
        // The corrupted tag no longer matches: miss (refill), not a
        // false hit.
        let out = c.access(0, false);
        assert!(!out.hit);
    }

    #[test]
    fn value_for_is_deterministic_and_word_stable() {
        assert_eq!(value_for(0x1234), value_for(0x1234));
        assert_ne!(value_for(0x1234), value_for(0x1238));
        assert!(value_for(u64::MAX) <= u32::MAX as u64);
    }

    #[test]
    fn verification_address_honors_configured_word_size() {
        // Regression: the payload address used to be hard-coded to
        // 4-byte words (`addr / 4 * 4`) while the slot index honored
        // `word_bits`, so any non-32-bit word config miscounted clean
        // reads as silent corruptions at word-interior offsets.
        for word_bits in [16u32, 64] {
            let mut cfg = SystemConfig::uniform_6t().il1;
            cfg.word_bits = word_bits;
            cfg.validate().expect("geometry stays valid");
            let mut c = HybridCache::new(cfg, Mode::Hp);
            // Force the verifying slow path: the fast path skips the
            // payload check entirely.
            c.set_force_slow_path(true);
            for addr in (0..512).step_by(4) {
                c.access(addr, true);
            }
            for addr in (0..512).step_by(4) {
                let out = c.access(addr, false);
                assert_eq!(
                    out.silent, 0,
                    "{word_bits}-bit words: false corruption at {addr:#x}"
                );
                assert_eq!(out.detected, 0);
            }
            assert_eq!(c.stats().silent_corruptions, 0);
        }
    }

    fn two_ule_ways_cache(mode: Mode) -> HybridCache {
        // Ways 0-1 are HP-only (disabled at ULE), ways 2-3 stay on.
        let mut ways = vec![crate::config::WaySpec::hp_way(1.0, Protection::None); 2];
        for _ in 0..2 {
            ways.push(crate::config::WaySpec::ule_way(
                CellKind::Sram8T,
                1.8,
                Protection::None,
                Protection::None,
            ));
        }
        HybridCache::new(CacheConfig::l1_8kb(ways), mode)
    }

    #[test]
    fn victim_ties_break_to_the_lowest_index_enabled_way() {
        let mut c = two_ule_ways_cache(Mode::Ule);
        let sets = c.config().sets();
        let line = c.config().line_bytes;
        // Invalid lines: the first *enabled* way wins, skipping the
        // HP ways that are gated off at ULE.
        c.access(0, false);
        assert!(
            c.is_valid(c.line_index(2, 0)),
            "lowest enabled way fills first"
        );
        assert!(
            !c.is_valid(c.line_index(0, 0)),
            "disabled ways must be skipped"
        );
        c.access(sets * line, false);
        assert!(c.is_valid(c.line_index(3, 0)));
        // Stage an exact LRU tie between the two valid lines: the
        // documented tie-break evicts the lowest-index enabled way.
        let (li2, li3) = (c.line_index(2, 0), c.line_index(3, 0));
        c.lru_stamps[li2] = 7;
        c.lru_stamps[li3] = 7;
        let survivor_tag = c.tags[li3];
        c.access(2 * sets * line, false);
        assert_eq!(
            c.tags[li3], survivor_tag,
            "higher-index way must survive the tie"
        );
        assert_eq!(c.tags[li2], 2, "way 2 holds the new line");
        // At HP every way participates again: a fresh cache fills
        // way 0 first.
        let mut c = two_ule_ways_cache(Mode::Hp);
        c.access(0, false);
        assert!(c.is_valid(c.line_index(0, 0)));
    }

    #[test]
    fn fast_and_slow_paths_agree_counter_for_counter() {
        let mut fast = cache();
        let mut slow = cache();
        slow.set_force_slow_path(true);
        assert!(fast.is_fault_free());
        let sets = fast.config().sets();
        let line = fast.config().line_bytes;
        // Hits, misses, conflict evictions, dirty writebacks.
        let mut addrs = Vec::new();
        for i in 0u64..600 {
            addrs.push((i.wrapping_mul(2654435761) % (12 * sets * line)) & !3);
        }
        for (i, &addr) in addrs.iter().enumerate() {
            let is_write = i % 3 == 1;
            let a = fast.access(addr, is_write);
            let b = slow.access(addr, is_write);
            assert_eq!(a, b, "outcome diverged at access {i} ({addr:#x})");
        }
        assert_eq!(fast.stats(), slow.stats());
        // And the stored state is identical too: arming the slow path
        // afterwards reads back every line cleanly.
        fast.set_force_slow_path(true);
        for &addr in &addrs {
            let out = fast.access(addr, false);
            assert_eq!(out.silent, 0);
            assert_eq!(out.detected, 0);
        }
    }

    #[test]
    fn fault_free_tracking_arms_and_disarms_the_fast_path() {
        let mut c = cache();
        assert!(c.is_fault_free());
        c.access(0, false);
        let slot = WordSlot {
            way: 0,
            set: 0,
            slot: 0,
        };
        // Installing and removing a stuck bit toggles the state.
        c.set_stuck_bits(slot, StuckBits { mask: 1, value: 0 });
        assert!(!c.is_fault_free());
        c.set_stuck_bits(slot, StuckBits { mask: 0, value: 0 });
        assert!(c.is_fault_free());
        // A soft error disarms the fast path and is actually seen by
        // the unprotected slow path...
        let way = (0..8)
            .find(|&w| c.is_valid(c.line_index(w, 0)))
            .expect("line filled");
        let hit_slot = WordSlot {
            way,
            set: 0,
            slot: 0,
        };
        c.inject_soft_error(hit_slot, 3);
        assert!(!c.is_fault_free());
        let out = c.access(0, false);
        assert!(out.hit);
        assert_eq!(out.silent, 1, "flip must be delivered silently (6T/none)");
        // ...and the flush on a mode switch restores the fast path.
        c.set_mode(Mode::Hp);
        assert!(c.is_fault_free());
    }

    #[test]
    fn sixty_four_bit_tags_are_rejected() {
        // Regression: `Protection::None` supports 64-bit words, so a
        // 64-bit tag used to pass validation; the tag mask shift then
        // overflowed (a panic in debug, a zero mask in release, where
        // every line of a set aliased).
        let mut cfg = SystemConfig::uniform_6t().il1;
        cfg.tag_bits = 64;
        let err = crate::config::ConfigError::TagTooWide { tag_bits: 64 };
        assert_eq!(cfg.validate(), Err(err));
        assert_eq!(
            HybridCache::try_new(cfg.clone(), Mode::Hp).unwrap_err(),
            err
        );
        // 63 bits is the widest tag, and conflicting lines still miss.
        cfg.tag_bits = 63;
        let mut c = HybridCache::try_new(cfg, Mode::Hp).expect("63-bit tags are valid");
        let stride = c.config().sets() * c.config().line_bytes;
        c.access(0, false);
        assert!(!c.access(stride, false).hit, "a conflicting line must miss");
        assert!(c.access(0, false).hit);
        assert!(c.access(stride, false).hit);
    }

    #[test]
    fn slow_refill_duplicates_a_tag_and_the_fast_path_agrees() {
        // A stuck bit on a resident line's tag makes the slow lookup
        // miss, so the line is refilled into a second way: two ways of
        // set 0 now hold the same plain tag. Once the fault is gone the
        // fast path (scan and memo alike) must pick the same way as
        // the slow path, access for access.
        let mut fast = cache();
        let mut slow = cache();
        slow.set_force_slow_path(true);
        let tag_slot = WordSlot {
            way: 0,
            set: 0,
            slot: fast.config().words_per_line(),
        };
        let both = |fast: &mut HybridCache, slow: &mut HybridCache, addr, write| {
            let a = fast.access(addr, write);
            assert_eq!(a, slow.access(addr, write), "diverged at {addr:#x}");
            a
        };
        both(&mut fast, &mut slow, 0, false);
        for c in [&mut fast, &mut slow] {
            let stored = c.read_stored(tag_slot);
            c.set_stuck_bits(
                tag_slot,
                StuckBits {
                    mask: 1,
                    value: !stored & 1,
                },
            );
        }
        assert!(
            !both(&mut fast, &mut slow, 4, true).hit,
            "tag fault refills"
        );
        let (li0, li1) = (fast.line_index(0, 0), fast.line_index(1, 0));
        assert_eq!(fast.tags[li0], fast.tags[li1], "duplicate plain tags");
        for c in [&mut fast, &mut slow] {
            c.set_stuck_bits(tag_slot, StuckBits::default());
        }
        assert!(fast.is_fault_free());
        let stride = fast.config().sets() * fast.config().line_bytes;
        for (addr, write) in [
            (8, false),
            (12, true),
            (stride, false),
            (0, false),
            (16, true),
        ] {
            both(&mut fast, &mut slow, addr, write);
        }
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.set_mode(Mode::Hp), slow.set_mode(Mode::Hp));
    }

    /// A uniform-6T cache and its forced-slow twin, each holding tag 1
    /// of set 0 in way 0 with bit 0 of that tag stuck at 0, so the
    /// tag reads as tag 0. Returns the pair and the tag's slot.
    fn false_hit_twins() -> ([HybridCache; 2], WordSlot) {
        let mut caches = [cache(), cache()];
        caches[1].set_force_slow_path(true);
        let stride = caches[0].config().sets() * caches[0].config().line_bytes;
        let tag_slot = WordSlot {
            way: 0,
            set: 0,
            slot: caches[0].config().words_per_line(),
        };
        for c in &mut caches {
            c.access(stride, false);
            assert_eq!(c.tags[c.line_index(0, 0)], 1, "tag 1 fills way 0");
            c.set_stuck_bits(tag_slot, StuckBits { mask: 1, value: 0 });
        }
        (caches, tag_slot)
    }

    #[test]
    fn false_hit_store_is_seen_after_disarm() {
        // A store to word 1 of tag 0 hits way 0 through the faulty tag
        // and writes tag 0's payload into tag 1's line. Disarming the
        // fault must not bring back the fast path, which would report
        // that word of tag 1 clean.
        let ([mut fast, mut slow], tag_slot) = false_hit_twins();
        let stride = fast.config().sets() * fast.config().line_bytes;
        for c in [&mut fast, &mut slow] {
            assert!(c.access(4, true).hit, "false hit");
            c.set_stuck_bits(tag_slot, StuckBits::default());
        }
        assert!(!fast.is_fault_free());
        let out = fast.access(stride + 4, false);
        assert_eq!(out, slow.access(stride + 4, false));
        assert!(out.hit);
        assert_eq!(out.silent, 1);
        // A flush discards the foreign payload and rearms the fast path.
        fast.set_mode(Mode::Hp);
        assert!(fast.is_fault_free());
    }

    #[test]
    fn armed_false_hit_load_still_counts_silent() {
        // The load of word 1 of tag 0 hits way 0 through the stuck tag
        // bit; the word there has no stuck-at entry, but it holds tag
        // 1's payload, so it must still be verified.
        let ([mut armed, mut slow], _) = false_hit_twins();
        let out = armed.access(4, false);
        assert_eq!(out, slow.access(4, false));
        assert!(out.hit);
        assert_eq!(out.silent, 1);
    }

    #[test]
    fn soft_error_beside_a_stuck_word_is_still_corrected() {
        // A stuck bit in word 0 arms the slow path; word 1 has no
        // stuck-at entry, but a soft error in it must still be decoded
        // and corrected.
        let mut c = hybrid_a_proposal();
        c.access(0, false);
        let word = |slot| WordSlot {
            way: 7,
            set: 0,
            slot,
        };
        c.set_stuck_bits(
            word(0),
            StuckBits {
                mask: 1 << 3,
                value: 0,
            },
        );
        c.inject_soft_error(word(1), 5);
        let out = c.access(4, false);
        assert!(out.hit);
        assert_eq!(out.corrected, 1);
        assert_eq!(out.silent, 0);
    }

    /// The A proposal's word `slot` of `way` in set 0: HP ways 0-6
    /// store bare 32-bit words and 26-bit tags, ULE way 7 stores
    /// SECDED's 7 check bits beside each.
    fn slot_of(way: usize, slot: u64) -> WordSlot {
        WordSlot { way, set: 0, slot }
    }

    #[test]
    fn faults_may_reach_the_last_stored_bit() {
        let mut c = hybrid_a_proposal();
        c.inject_soft_error(slot_of(7, 0), 38);
        c.inject_soft_error(slot_of(7, 8), 32);
        let last = StuckBits {
            mask: 1 << 25,
            value: 0,
        };
        c.set_stuck_bits(slot_of(0, 8), last);
        assert_eq!(c.fault_bit_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn soft_error_past_the_tag_slot_panics() {
        // Slot 9 would be word 0 of the next line.
        hybrid_a_proposal().inject_soft_error(slot_of(0, 9), 0);
    }

    #[test]
    #[should_panic(expected = "overruns the 39-bit stored word")]
    fn soft_error_at_bit_64_panics() {
        hybrid_a_proposal().inject_soft_error(slot_of(7, 0), 64);
    }

    #[test]
    #[should_panic(expected = "overruns the 33-bit stored word")]
    fn soft_error_past_the_stored_width_panics() {
        hybrid_a_proposal().inject_soft_error(slot_of(7, 8), 33);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stuck_bits_past_the_tag_slot_panic() {
        hybrid_a_proposal().set_stuck_bits(slot_of(0, 9), StuckBits { mask: 1, value: 0 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stuck_bits_on_a_missing_way_panic() {
        // Way 8 would be way 0 of the next set.
        hybrid_a_proposal().set_stuck_bits(slot_of(8, 0), StuckBits { mask: 1, value: 0 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stuck_bits_on_a_missing_set_panic() {
        let slot = WordSlot {
            way: 0,
            set: 32,
            slot: 0,
        };
        hybrid_a_proposal().set_stuck_bits(slot, StuckBits { mask: 1, value: 0 });
    }

    #[test]
    #[should_panic(expected = "overruns the 32-bit stored word")]
    fn stuck_bits_past_the_stored_width_panic() {
        let faults = StuckBits {
            mask: 1 << 32,
            value: 0,
        };
        hybrid_a_proposal().set_stuck_bits(slot_of(0, 0), faults);
    }
}
