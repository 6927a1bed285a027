// Regions of code whose float results are pinned bit for bit to another
// implementation (the SIMD rotation and small-d table kernels against their
// scalar references and linalg::MatVec).
//
// Such code must round every multiply and every add separately. GCC's
// default -ffp-contract=fast fuses a multiply feeding an add into one FMA
// wherever the target has FMA: the -mfma / -mavx512f kernel translation
// units on x86, and everything on aarch64. That applies to intrinsics too
// (_mm512_add_ps(acc, _mm512_mul_ps(a, b)) becomes vfmadd), so the whole
// region is compiled with contraction off. Clang contracts only within one
// source expression by default, which intrinsic calls and separate
// statements never form, so it needs no pragma.
#pragma once

#if defined(__GNUC__) && !defined(__clang__)
#define RPQ_FP_EXACT_BEGIN \
  _Pragma("GCC push_options") _Pragma("GCC optimize(\"fp-contract=off\")")
#define RPQ_FP_EXACT_END _Pragma("GCC pop_options")
#else
#define RPQ_FP_EXACT_BEGIN
#define RPQ_FP_EXACT_END
#endif
