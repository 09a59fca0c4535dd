#pragma once
// Umbrella header for the mf::simd subsystem.
//
//   pack.hpp     Pack<T, W> vector value type (scalar fallback + SSE2/AVX2/
//                AVX-512/NEON specializations); opts into mf::FloatingPoint
//                so the FPAN networks instantiate over packs unchanged; the
//                build's native_width<T> and native_isa.
//   kernels.hpp  Width-templated pack FPAN kernels (planar and AoS) with
//                explicit scalar tail loops; W defaults to native_width<T>.
//   dispatch.hpp active_width / with_active_width, and for_each_width to
//                reach every other width.

#include "dispatch.hpp"
#include "kernels.hpp"
#include "pack.hpp"
