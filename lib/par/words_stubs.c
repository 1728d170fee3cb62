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
