/* Word access for the native heap (Ts_par.Heap), plus a monotonic clock.

   The heap's words are one OCaml [int array].  Every element is an
   immediate (a tagged int, 2n+1), so no access needs a write barrier and
   the GC never follows a word.  Shared accesses go through these stubs:
   sequentially consistent __atomic operations on the tagged word itself.
   The index arrives untagged and is bounds-checked by the caller.

   [fetch_add] adds 2*delta to the tagged word: (2n+1) + 2d = 2(n+d)+1,
   the tagged form of n+d, and the old tagged word it returns is the old
   int.  Atomic arithmetic on a signed type wraps, so overflow behaves as
   it does for OCaml ints and [Atomic.fetch_and_add].

   Two loops of TS-Scan run here whole, one C call each, because their
   per-word cost is what a conservative scan costs:

   - [next_in_window] walks a thread's own words (its shadow stack or
     register ring) with plain loads, as the runtime stores them, and
     stops at the next word inside the scan's window;
   - [word_search] is the scanner's binary search of the master buffer,
     with the same SC load and shadow check per probe as [Heap.read].

   So do the reclaimer's buffer loops (Ts_rt.drain_by and friends), for
   the same reason: [word_drain], [word_read_words], [word_publish] and
   [word_sweep] check the shadow byte of every word the loop would touch
   before they touch any, then move the words in the loop's order.  A
   word that is not live makes them return -1 having stored nothing, and
   the caller reruns the checked loop.

   Those moves are relaxed, not SC: [word_publish] stores entries and
   marks relaxed, [word_sweep] compacts with relaxed stores, and
   [word_drain] copies relaxed and makes one SC tail store at the end in
   place of one per entry.  No other thread reads a word they write
   before an SC store publishes it:

   - Master_buffer follows each of them with an SC store of its count,
     and a scanner loads the count before any entry, so an entry the
     scanner reads was stored before the count it saw;
   - the owner of a delete buffer cannot reuse a slot before the tail
     passes it, and the drain's one tail store comes after every slot
     load, so a slot it copies cannot be rewritten under it.

   The simulator and the analyzer keep the reference loops, whose every
   word is one SC op.

   The runtime's thread lookup is one C thread-local: the logical tid of
   the systhread, or -1 outside a run.  Logical threads are systhreads,
   and a systhread is a POSIX thread, so every one has its own copy.

   Every stub is [@@noalloc]: none allocates, raises or releases the
   runtime lock, and the array is passed anew on every call, so a GC that
   moves it between calls is harmless. */

#include <time.h>
#include <caml/mlvalues.h>

#define WORD(words, i) (Op_val(words) + (i))

value ts_par_word_load(value words, intnat i)
{
  return __atomic_load_n(WORD(words, i), __ATOMIC_SEQ_CST);
}

value ts_par_word_load_byte(value words, value i)
{
  return ts_par_word_load(words, Long_val(i));
}

value ts_par_word_store(value words, intnat i, value v)
{
  __atomic_store_n(WORD(words, i), v, __ATOMIC_SEQ_CST);
  return Val_unit;
}

value ts_par_word_store_byte(value words, value i, value v)
{
  return ts_par_word_store(words, Long_val(i), v);
}

value ts_par_word_cas(value words, intnat i, value expected, value desired)
{
  return Val_bool(__atomic_compare_exchange_n(WORD(words, i), &expected, desired, 0,
                                              __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST));
}

value ts_par_word_cas_byte(value words, value i, value expected, value desired)
{
  return ts_par_word_cas(words, Long_val(i), expected, desired);
}

value ts_par_word_fetch_add(value words, intnat i, intnat delta)
{
  /* unsigned shift: 2*delta must wrap, not overflow, for huge deltas */
  return __atomic_fetch_add(WORD(words, i), (value)((uintnat)delta << 1), __ATOMIC_SEQ_CST);
}

value ts_par_word_fetch_add_byte(value words, value i, value delta)
{
  return ts_par_word_fetch_add(words, Long_val(i), Long_val(delta));
}

/* CLOCK_MONOTONIC never steps backwards or jumps with the wall clock, so
   deadlines and delay windows measured on it cannot fire early or hang. */
intnat ts_par_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value ts_par_monotonic_ns_byte(value unit) { return Val_long(ts_par_monotonic_ns(unit)); }

/* ---- thread lookup ---- */

static _Thread_local intnat ts_par_tid = -1;

value ts_par_set_tid(intnat tid)
{
  ts_par_tid = tid;
  return Val_unit;
}

value ts_par_set_tid_byte(value tid) { return ts_par_set_tid(Long_val(tid)); }

intnat ts_par_get_tid(value unit)
{
  (void)unit;
  return ts_par_tid;
}

value ts_par_get_tid_byte(value unit) { return Val_long(ts_par_get_tid(unit)); }

/* ---- TS-Scan's window test over a thread's own words ----

   The first index in [from, until) whose word lies in [lo, hi], or
   [until].  [lo] and [hi] arrive tagged, like the words: tagging is
   monotone, and (w - lo) <= (hi - lo) as unsigned differences is the
   two-sided test in one compare.  A word below [lo] wraps to a
   difference above [hi - lo], since both ends are 63-bit ints.  Eight
   words are tested per iteration without a branch between them, by
   summing their tests; a block with a word inside falls through to the
   word-by-word loop, which returns that word.  (The sum ran about 1.5x
   faster than a bit mask of the eight tests and its count of trailing
   zeros, with gcc -O2 on x86-64.) */
intnat ts_par_next_in_window(value words, intnat from, intnat until, value lo, value hi)
{
  const value *w = Op_val(words);
  uintnat width = (uintnat)hi - (uintnat)lo;
  intnat i = from;
  if ((intnat)hi < (intnat)lo) return until;
#define IN(k) ((uintnat)((uintnat)w[i + (k)] - (uintnat)lo) <= width)
  for (; i + 8 <= until; i += 8)
    if (IN(0) + IN(1) + IN(2) + IN(3) + IN(4) + IN(5) + IN(6) + IN(7)) break;
  for (; i < until; i++)
    if (IN(0)) return i;
#undef IN
  return until;
}

value ts_par_next_in_window_byte(value words, value from, value until, value lo, value hi)
{
  return Val_long(ts_par_next_in_window(words, Long_val(from), Long_val(until), lo, hi));
}

/* ---- the master buffer's binary search ----

   The reference loop (Ts_rt.search_by) over [base, base + n), with each
   probe an SC load behind the shadow check [Heap.read] makes: in range
   and live (shadow byte 1).  A probe that fails the check gives up with
   -1 before the load, so the caller can rerun the search through the
   checked loop and record the fault exactly where the loop records it.
   Otherwise the result packs the probe count (at most 63) in the low 7
   bits and the found index plus one (0 for a miss) above them.  [key]
   arrives tagged; tagged words compare as their ints do. */
intnat ts_par_word_search(value words, value shadow, intnat base, intnat n, value key)
{
  uintnat cap = Wosize_val(words);
  const unsigned char *sh = Bytes_val(shadow);
  intnat lo = 0, hi = n - 1, probes = 0;
  while (lo <= hi) {
    intnat mid = lo + (hi - lo) / 2;
    intnat a = base + mid;
    value v;
    if (a <= 0 || (uintnat)a >= cap || sh[a] != 1) return -1;
    v = __atomic_load_n(WORD(words, a), __ATOMIC_SEQ_CST);
    probes++;
    if (v == key) return probes | (mid + 1) << 7;
    if ((intnat)v < (intnat)key)
      lo = mid + 1;
    else
      hi = mid - 1;
  }
  return probes;
}

value ts_par_word_search_byte(value words, value shadow, value base, value n, value key)
{
  return Val_long(ts_par_word_search(words, shadow, Long_val(base), Long_val(n), key));
}

/* ---- the reclamation phase's buffer loops ----

   [LIVE] is the check [Heap.read] and [Heap.write] make: in range and
   live (shadow byte 1).  Indices and counts arrive untagged; the words
   moved stay tagged, and the OCaml arrays they pass through hold
   immediates only, so plain stores into them need no write barrier. */

#define LIVE(a) ((a) > 0 && (uintnat)(a) < cap && sh[a] == 1)
#define LOAD(a) __atomic_load_n(WORD(words, a), __ATOMIC_SEQ_CST)
#define STORE(a, v) __atomic_store_n(WORD(words, a), (v), __ATOMIC_SEQ_CST)
#define LOAD_RELAXED(a) __atomic_load_n(WORD(words, a), __ATOMIC_RELAXED)
#define STORE_RELAXED(a, v) __atomic_store_n(WORD(words, a), (v), __ATOMIC_RELAXED)

/* Ts_rt.drain_by over the ring at [ring] ([head][tail][len slots]) into
   [dst .. dst + room - 1].  The head and tail are read first, and decide
   every other word the loop touches: [moved] slots copied, one more slot
   read when the room runs out first, and the tail the loop leaves.  The
   loop stores the tail after each slot; only its last value is stored
   here, once, after every copy.  Returns [moved] shifted left once, with
   that extra read in bit 0. */
intnat ts_par_word_drain(value words, value shadow, intnat ring, intnat len, intnat dst,
                         intnat room)
{
  uintnat cap = Wosize_val(words);
  const unsigned char *sh = Bytes_val(shadow);
  intnat h, k, avail, moved, reads, i;
  if (len <= 0 || !LIVE(ring) || !LIVE(ring + 1)) return -1;
  h = Long_val(LOAD(ring));
  k = Long_val(LOAD(ring + 1));
  if (k >= h) return 0;
  avail = h - k;
  moved = room <= 0 ? 0 : avail < room ? avail : room;
  reads = moved < avail ? moved + 1 : moved;
  for (i = 0; i < reads; i++)
    if (!LIVE(ring + 2 + (k + i) % len)) return -1;
  for (i = 0; i < moved; i++)
    if (!LIVE(dst + i)) return -1;
  for (i = 0; i < moved; i++) STORE_RELAXED(dst + i, LOAD_RELAXED(ring + 2 + (k + i) % len));
  if (reads > moved) (void)LOAD_RELAXED(ring + 2 + (k + moved) % len);
  if (moved > 0) STORE(ring + 1, Val_long(k + moved));
  return moved << 1 | (reads > moved);
}

value ts_par_word_drain_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(ts_par_word_drain(argv[0], argv[1], Long_val(argv[2]), Long_val(argv[3]),
                                    Long_val(argv[4]), Long_val(argv[5])));
}

/* Ts_rt.read_words_by: [into.(i) <- word (base + i)].  Returns 0. */
intnat ts_par_word_read_words(value words, value shadow, intnat base, intnat n, value into)
{
  uintnat cap = Wosize_val(words);
  const unsigned char *sh = Bytes_val(shadow);
  value *out = Op_val(into);
  intnat i;
  if (n > (intnat)Wosize_val(into)) return -1;
  for (i = 0; i < n; i++)
    if (!LIVE(base + i)) return -1;
  for (i = 0; i < n; i++) out[i] = LOAD(base + i);
  return 0;
}

value ts_par_word_read_words_byte(value words, value shadow, value base, value n, value into)
{
  return Val_long(ts_par_word_read_words(words, shadow, Long_val(base), Long_val(n), into));
}

/* Ts_rt.publish_by: entry i := src.(i), then mark i := 0.  Returns 0. */
intnat ts_par_word_publish(value words, value shadow, intnat entries, intnat marks, value src,
                           intnat n)
{
  uintnat cap = Wosize_val(words);
  const unsigned char *sh = Bytes_val(shadow);
  const value *in = Op_val(src);
  intnat i;
  if (n > (intnat)Wosize_val(src)) return -1;
  for (i = 0; i < n; i++)
    if (!LIVE(entries + i) || !LIVE(marks + i)) return -1;
  for (i = 0; i < n; i++) {
    STORE_RELAXED(entries + i, in[i]);
    STORE_RELAXED(marks + i, Val_long(0));
  }
  return 0;
}

value ts_par_word_publish_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(ts_par_word_publish(argv[0], argv[1], Long_val(argv[2]), Long_val(argv[3]),
                                      argv[4], Long_val(argv[5])));
}

/* Ts_rt.sweep_by: compact the marked entries to the front, collect the
   rest into [unmarked].  Returns the number carried. */
intnat ts_par_word_sweep(value words, value shadow, intnat entries, intnat marks,
                         value ignore_marks, intnat n, value unmarked)
{
  uintnat cap = Wosize_val(words);
  const unsigned char *sh = Bytes_val(shadow);
  value *out = Op_val(unmarked);
  int use_marks = !Bool_val(ignore_marks);
  intnat i, carry = 0, freed = 0;
  if (n > (intnat)Wosize_val(unmarked)) return -1;
  for (i = 0; i < n; i++)
    if (!LIVE(entries + i) || (use_marks && !LIVE(marks + i))) return -1;
  for (i = 0; i < n; i++) {
    value p = LOAD(entries + i);
    if (use_marks && LOAD(marks + i) != Val_long(0))
      STORE_RELAXED(entries + carry++, p);
    else
      out[freed++] = p;
  }
  return carry;
}

value ts_par_word_sweep_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(ts_par_word_sweep(argv[0], argv[1], Long_val(argv[2]), Long_val(argv[3]),
                                    argv[4], Long_val(argv[5]), argv[6]));
}
