// JitEval implementation: C code generation from the CompiledEval program
// image, out-of-process compilation, the content-hash kernel cache, and
// the runtime that drives the dlopened kernels behind the Evaluator
// interface.  See sim/jit.h for the trust model and DESIGN.md §16 for the
// full shape.
#include "sim/jit.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "core/bitstream.h"
#include "sim/compiled_program.h"

namespace pp::sim {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Content hashing (FNV-1a 64) — the program digest embedded in every
// generated TU, and the cache key over (source, compiler, flags).
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, 8); }
void fnv_u32(std::uint64_t& h, std::uint32_t v) { fnv_bytes(h, &v, 4); }
void fnv_str(std::uint64_t& h, const std::string& s) {
  fnv_u64(h, s.size());
  fnv_bytes(h, s.data(), s.size());
}

[[nodiscard]] std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

/// Structural digest of one Program: everything that determines the
/// emitted kernel's behaviour.  Embedded in the generated source and in
/// the cache sidecar, so a hash-colliding stale cache entry is caught by
/// digest mismatch after dlopen, not trusted.
[[nodiscard]] std::uint64_t program_digest(const CompiledEval::Program& p) {
  std::uint64_t h = kFnvOffset;
  fnv_bytes(h, "ppjit1", 6);
  fnv_u32(h, static_cast<std::uint32_t>(p.wide_words));
  fnv_u32(h, p.fast_path_ok ? 1u : 0u);
  fnv_u64(h, p.instrs.size());
  for (const Instr& it : p.instrs) {
    fnv_u32(h, static_cast<std::uint32_t>(it.op));
    fnv_u32(h, it.nin);
    fnv_u32(h, it.in_ofs);
    fnv_u32(h, it.out);
  }
  fnv_u64(h, p.operands.size());
  for (std::uint32_t o : p.operands) fnv_u32(h, o);
  fnv_u64(h, p.init.size());
  for (const PackedBits& b : p.init) {
    fnv_u64(h, b.value);
    fnv_u64(h, b.unknown);
  }
  fnv_u64(h, p.in_slots.size());
  for (std::uint32_t s : p.in_slots) fnv_u32(h, s);
  fnv_u64(h, p.out_slots.size());
  for (std::uint32_t s : p.out_slots) fnv_u32(h, s);
  fnv_u64(h, p.const_slots.size());
  for (std::uint32_t s : p.const_slots) fnv_u32(h, s);
  fnv_u64(h, p.regs.size());
  for (const SeqReg& r : p.regs) {
    fnv_u32(h, r.q_slot);
    fnv_u32(h, r.d_slot);
    fnv_u32(h, r.ctl_slot);
    fnv_u32(h, static_cast<std::uint32_t>(r.kind));
    fnv_u64(h, r.reset.value);
    fnv_u64(h, r.reset.unknown);
  }
  fnv_u32(h, p.n_public_in);
  fnv_u32(h, p.n_public_out);
  fnv_u32(h, (p.is_sequential ? 1u : 0u) | (p.has_settle_regs ? 2u : 0u));
  fnv_u32(h, p.n_edge_regs);
  return h;
}

// ---------------------------------------------------------------------------
// C code generation
// ---------------------------------------------------------------------------

/// The variadic base class of an opcode plus its operand count — the
/// emitter generalizes the fixed-arity specializations back to one
/// formula per class (the interpreter's 2/3-input cases are literally the
/// variadic formulas unrolled, so the generated code matches both).
enum class OpBase { kBuf, kNot, kAnd, kNand, kOr, kNor, kXor, kXnor, kResolve };

[[nodiscard]] OpBase op_base(Op op) noexcept {
  switch (op) {
    case Op::kBuf: return OpBase::kBuf;
    case Op::kNot: return OpBase::kNot;
    case Op::kAnd: case Op::kAnd2: case Op::kAnd3: return OpBase::kAnd;
    case Op::kNand: case Op::kNand2: case Op::kNand3: return OpBase::kNand;
    case Op::kOr: case Op::kOr2: case Op::kOr3: return OpBase::kOr;
    case Op::kNor: case Op::kNor2: case Op::kNor3: return OpBase::kNor;
    case Op::kXor: case Op::kXor2: case Op::kXor3: return OpBase::kXor;
    case Op::kXnor: case Op::kXnor2: case Op::kXnor3: return OpBase::kXnor;
    case Op::kResolve: return OpBase::kResolve;
  }
  return OpBase::kBuf;
}

/// The full TU for one Program.  Exported symbols:
///   pp_jit_abi / pp_jit_w / pp_jit_slots / pp_jit_has_fast — validated
///     against the program after dlopen (a stale or colliding cache entry
///     with a different shape fails closed here);
///   pp_jit_digest — the program content digest, the final stale-entry
///     tripwire;
///   pp_jit_eval2 (+ pp_jit_eval1 when fast-path eligible) — the kernels.
/// Both kernels process all W words of every slot unconditionally; the
/// caller masks dead lanes/words at the load/store boundary exactly like
/// the interpreter.
///
/// Two structural decisions keep the generated code fast and compilable at
/// fabric scale (tens of thousands of instructions):
///
///  1. **Chunking.**  The program is split into bounded noinline helper
///     functions — as one function the host compiler's whole-function
///     passes go super-linear (minutes of cc1 on the fig10 16-bit
///     datapath).  Levelization already fixed the order, so the split is
///     free.
///
///  2. **Scalarization.**  Each chunk is one `for (w)` loop whose
///     intermediate slots live in C locals, not plane memory.  Only slots
///     the outside world can observe — program inputs/outputs, constants,
///     register taps — or values that cross a chunk boundary are stored to
///     V/U.  Everything else stays in registers, so per-instruction text
///     shrinks (no 8x-unrolled loop per gate, no 2 loads + 1 store per
///     operand plane) and a pass stops being bound on instruction fetch
///     and plane traffic.  The interpreter writes every slot; the kernels
///     observably agree because nothing reads a non-materialized slot's
///     plane image — the differential gate in build() enforces exactly
///     this.
[[nodiscard]] std::string emit_c(const CompiledEval::Program& p,
                                 const std::string& digest_hex) {
  std::string s;
  s.reserve(256 + p.instrs.size() * 120);
  s += "/* generated by pp::sim::JitEval — do not edit.\n";
  s += " * program digest " + digest_hex + ", " +
       std::to_string(p.instrs.size()) + " instructions, W=" +
       std::to_string(p.wide_words) + " plane words. */\n";
  s += "#include <stdint.h>\n";
  s += "#define W " + std::to_string(p.wide_words) + "\n";
  s += "const char pp_jit_digest[] = \"" + digest_hex + "\";\n";
  s += "const uint32_t pp_jit_abi = 1u;\n";
  s += "const uint32_t pp_jit_w = " + std::to_string(p.wide_words) + "u;\n";
  s += "const uint32_t pp_jit_slots = " + std::to_string(p.init.size()) +
       "u;\n";
  s += std::string("const uint32_t pp_jit_has_fast = ") +
       (p.fast_path_ok ? "1u;\n" : "0u;\n");

  constexpr std::size_t kChunk = 256;
  const std::size_t nchunks = (p.instrs.size() + kChunk - 1) / kChunk;
  const std::size_t nslots = p.init.size();

  // Slot classification: which defined slots must be stored to the planes.
  // Externally observable slots first (the C++ wrapper loads inputs and
  // constants, scans and commits register taps, and gathers outputs from
  // plane memory), then anything whose def and a use land in different
  // chunks, then the degenerate multi-def case (keep the plane current so
  // a later chunk always sees the latest image).
  std::vector<std::uint8_t> mat(nslots, 0);
  for (std::uint32_t sl : p.in_slots) mat[sl] = 1;
  for (std::uint32_t sl : p.out_slots) mat[sl] = 1;
  for (std::uint32_t sl : p.const_slots) mat[sl] = 1;
  for (const SeqReg& r : p.regs) {
    mat[r.q_slot] = 1;
    mat[r.d_slot] = 1;
    if (r.ctl_slot != kNoSlot) mat[r.ctl_slot] = 1;
  }
  std::vector<std::int32_t> defc(nslots, -1);
  for (std::size_t i = 0; i < p.instrs.size(); ++i) {
    const Instr& it = p.instrs[i];
    const auto c = static_cast<std::int32_t>(i / kChunk);
    const std::uint32_t* o = p.operands.data() + it.in_ofs;
    for (std::uint32_t j = 0; j < it.nin; ++j)
      if (defc[o[j]] >= 0 && defc[o[j]] != c) mat[o[j]] = 1;
    if (defc[it.out] >= 0) mat[it.out] = 1;
    defc[it.out] = c;
  }

  // `local[slot] == chunk` → the slot was defined earlier in the chunk
  // being emitted and its C local is in scope.
  std::vector<std::int32_t> local(nslots, -1);

  auto emit_fn = [&](bool two_plane) {
    std::fill(local.begin(), local.end(), -1);
    const char* args = two_plane
                           ? "(uint64_t* restrict V, uint64_t* restrict U)"
                           : "(uint64_t* restrict V)";
    const char* tag = two_plane ? "2" : "1";
    std::int32_t cur = -1;
    auto rv = [&](std::uint32_t sl) {
      return local[sl] == cur ? "v" + std::to_string(sl)
                              : "V[" + std::to_string(sl) + "*W+w]";
    };
    auto ru = [&](std::uint32_t sl) {
      return local[sl] == cur ? "u" + std::to_string(sl)
                              : "U[" + std::to_string(sl) + "*W+w]";
    };
    // `(v0 op v1 op ...)` over the value plane of each operand.
    auto join_v = [&](const std::uint32_t* o, std::uint32_t n,
                      const char* sep) {
      std::string e = rv(o[0]);
      for (std::uint32_t j = 1; j < n; ++j) e += sep + rv(o[j]);
      return e;
    };
    // `(u0 | u1 | ...)` over the unknown plane of each operand.
    auto join_u = [&](const std::uint32_t* o, std::uint32_t n) {
      std::string e = ru(o[0]);
      for (std::uint32_t j = 1; j < n; ++j) e += " | " + ru(o[j]);
      return e;
    };
    // `(~v0 & ~u0) <sep> (~v1 & ~u1) ...` — the known-0 term per operand.
    auto join_known0 = [&](const std::uint32_t* o, std::uint32_t n,
                           const char* sep) {
      std::string e;
      for (std::uint32_t j = 0; j < n; ++j) {
        if (j) e += sep;
        e += "(~" + rv(o[j]) + " & ~" + ru(o[j]) + ")";
      }
      return e;
    };

    for (std::size_t c = 0; c < nchunks; ++c) {
      cur = static_cast<std::int32_t>(c);
      s += std::string("static __attribute__((noinline)) void pp_c") + tag +
           "_" + std::to_string(c) + args + " {\n";
      s += "  for (int w = 0; w < W; ++w) {\n";
      const std::size_t hi = std::min(p.instrs.size(), (c + 1) * kChunk);
      for (std::size_t i = c * kChunk; i < hi; ++i) {
        const Instr& it = p.instrs[i];
        const std::uint32_t* o = p.operands.data() + it.in_ofs;
        const std::string dv = "v" + std::to_string(it.out);
        const std::string du = "u" + std::to_string(it.out);
        // One statement (or braced block, when the formula needs shared
        // subterms) per instruction — the exact interpreter formula with
        // operand references resolved to in-scope locals or plane words.
        if (local[it.out] != cur)
          s += two_plane ? "    uint64_t " + dv + ", " + du + ";\n"
                         : "    uint64_t " + dv + ";\n";
        if (two_plane) {
          switch (op_base(it.op)) {
            case OpBase::kBuf:
              s += "    " + dv + " = " + rv(o[0]) + "; " + du + " = " +
                   ru(o[0]) + ";\n";
              break;
            case OpBase::kNot:
              s += "    " + dv + " = ~" + rv(o[0]) + " & ~" + ru(o[0]) +
                   "; " + du + " = " + ru(o[0]) + ";\n";
              break;
            case OpBase::kAnd:
            case OpBase::kNand:
              s += "    { const uint64_t all1 = " + join_v(o, it.nin, " & ") +
                   ";\n      const uint64_t any0 = " +
                   join_known0(o, it.nin, " | ") + ";\n      " + dv + " = " +
                   (op_base(it.op) == OpBase::kAnd ? "all1" : "any0") +
                   "; " + du + " = ~(all1 | any0); }\n";
              break;
            case OpBase::kOr:
            case OpBase::kNor:
              s += "    { const uint64_t any1 = " + join_v(o, it.nin, " | ") +
                   ";\n      const uint64_t all0 = " +
                   join_known0(o, it.nin, " & ") + ";\n      " + dv + " = " +
                   (op_base(it.op) == OpBase::kOr ? "any1" : "all0") +
                   "; " + du + " = ~(any1 | all0); }\n";
              break;
            case OpBase::kXor:
            case OpBase::kXnor:
              s += "    { const uint64_t xu = " + join_u(o, it.nin) +
                   ";\n      " + dv + " = " +
                   (op_base(it.op) == OpBase::kXor ? "(" : "~(") +
                   join_v(o, it.nin, " ^ ") + ") & ~xu; " + du +
                   " = xu; }\n";
              break;
            case OpBase::kResolve: {
              // Pairwise wired-and accumulation, same order as the
              // interpreter.
              s += "    { uint64_t rv = " + rv(o[0]) +
                   "; uint64_t ru = " + ru(o[0]) + ";\n";
              for (std::uint32_t j = 1; j < it.nin; ++j) {
                s += "      ru |= " + ru(o[j]) + " | (rv ^ " + rv(o[j]) +
                     "); rv &= " + rv(o[j]) + ";\n";
              }
              s += "      " + dv + " = rv & ~ru; " + du + " = ru; }\n";
              break;
            }
          }
        } else {
          switch (op_base(it.op)) {
            case OpBase::kBuf:
              s += "    " + dv + " = " + rv(o[0]) + ";\n";
              break;
            case OpBase::kNot:
              s += "    " + dv + " = ~" + rv(o[0]) + ";\n";
              break;
            case OpBase::kAnd:
              s += "    " + dv + " = " + join_v(o, it.nin, " & ") + ";\n";
              break;
            case OpBase::kNand:
              s += "    " + dv + " = ~(" + join_v(o, it.nin, " & ") + ");\n";
              break;
            case OpBase::kOr:
              s += "    " + dv + " = " + join_v(o, it.nin, " | ") + ";\n";
              break;
            case OpBase::kNor:
              s += "    " + dv + " = ~(" + join_v(o, it.nin, " | ") + ");\n";
              break;
            case OpBase::kXor:
              s += "    " + dv + " = " + join_v(o, it.nin, " ^ ") + ";\n";
              break;
            case OpBase::kXnor:
              s += "    " + dv + " = ~(" + join_v(o, it.nin, " ^ ") + ");\n";
              break;
            case OpBase::kResolve:
              break;  // unreachable: fast-path eligibility excludes resolution
          }
        }
        local[it.out] = cur;
        if (mat[it.out]) {
          const std::string os = std::to_string(it.out);
          s += "    V[" + os + "*W+w] = " + dv + ";";
          if (two_plane) s += " U[" + os + "*W+w] = " + du + ";";
          s += "\n";
        }
      }
      s += "  }\n}\n";
    }
    s += std::string("void pp_jit_eval") + tag + args + " {\n";
    if (p.instrs.empty())
      s += two_plane ? "  (void)V; (void)U;\n" : "  (void)V;\n";
    for (std::size_t c = 0; c < nchunks; ++c)
      s += std::string("  pp_c") + tag + "_" + std::to_string(c) +
           (two_plane ? "(V, U);\n" : "(V);\n");
    s += "}\n";
  };
  emit_fn(/*two_plane=*/true);
  if (p.fast_path_ok) emit_fn(/*two_plane=*/false);
  return s;
}

// ---------------------------------------------------------------------------
// Out-of-process compilation
// ---------------------------------------------------------------------------

[[nodiscard]] std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

/// fork/execvp `argv`, stdout/stderr captured to files (empty path =
/// /dev/null).  Returns the exit code, 127 when exec itself failed, or -1
/// when fork/waitpid failed.
[[nodiscard]] int run_command(const std::vector<std::string>& argv,
                              const std::string& out_path,
                              const std::string& err_path) {
  std::vector<char*> av;
  av.reserve(argv.size() + 1);
  for (const std::string& a : argv) av.push_back(const_cast<char*>(a.c_str()));
  av.push_back(nullptr);
  const char* out = out_path.empty() ? "/dev/null" : out_path.c_str();
  const char* err = err_path.empty() ? "/dev/null" : err_path.c_str();
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    // Redirect at the descriptor level: stdio in the child would flush the
    // output buffer it inherited (repeating the host's pending stdout) and
    // take stream locks, which is unsafe after fork in a threaded process.
    const int flags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;
    const int out_fd = ::open(out, flags, 0666);
    const int err_fd = ::open(err, flags, 0666);
    if (out_fd < 0 || err_fd < 0 || ::dup2(out_fd, STDOUT_FILENO) < 0 ||
        ::dup2(err_fd, STDERR_FILENO) < 0)
      ::_exit(127);
    ::execvp(av[0], av.data());
    ::_exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

[[nodiscard]] std::string read_text_file(const std::string& path,
                                         std::size_t max_bytes = 4096) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::string s(max_bytes, '\0');
  in.read(s.data(), static_cast<std::streamsize>(max_bytes));
  s.resize(static_cast<std::size_t>(in.gcount()));
  return s;
}

[[nodiscard]] bool write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

/// First line of `<cc> --version`, cached per compiler command for the
/// process lifetime (the identity participates in every cache key, so it
/// is on the build path of every kernel).  Empty Result = no compiler.
[[nodiscard]] Result<std::string> compiler_identity(
    const std::vector<std::string>& cc, const std::string& scratch_dir) {
  static std::mutex mu;
  static std::map<std::string, Result<std::string>> cache;
  std::string key;
  for (const std::string& a : cc) {
    key += a;
    key += '\x1f';
  }
  std::lock_guard<std::mutex> lock(mu);
  if (auto it = cache.find(key); it != cache.end()) return it->second;

  static std::atomic<std::uint64_t> seq{0};
  const std::string out = scratch_dir + "/tmp-ccid-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(seq.fetch_add(1));
  std::vector<std::string> argv = cc;
  argv.emplace_back("--version");
  const int rc = run_command(argv, out, "");
  std::string first = read_text_file(out, 512);
  std::error_code ec;
  fs::remove(out, ec);
  if (const std::size_t nl = first.find('\n'); nl != std::string::npos)
    first.resize(nl);
  Result<std::string> r =
      (rc != 0 || first.empty())
          ? Result<std::string>(Status::unavailable(
                "jit: host compiler '" + cc.front() +
                "' not found or not runnable (exit " + std::to_string(rc) +
                ") — set PP_JIT_CC or keep serving on the interpreter"))
          : Result<std::string>(std::move(first));
  cache.emplace(key, r);
  return r;
}

// ---------------------------------------------------------------------------
// Kernel cache
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint32_t file_crc32(const std::string& path,
                                       std::uint64_t& size_out) {
  std::ifstream in(path, std::ios::binary);
  size_out = 0;
  if (!in) return 0;
  std::vector<std::uint8_t> buf(std::istreambuf_iterator<char>(in), {});
  size_out = buf.size();
  return core::crc32(buf);
}

struct MetaFile {
  std::string digest;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  std::string compiler;
};

[[nodiscard]] std::string meta_to_text(const MetaFile& m) {
  return "pp-jit-meta v1\ndigest " + m.digest + "\nsize " +
         std::to_string(m.size) + "\ncrc32 " + std::to_string(m.crc) +
         "\ncompiler " + m.compiler + "\n";
}

[[nodiscard]] bool meta_from_text(const std::string& text, MetaFile& m) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "pp-jit-meta v1") return false;
  bool have_digest = false, have_size = false, have_crc = false;
  while (std::getline(in, line)) {
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string k = line.substr(0, sp), v = line.substr(sp + 1);
    if (k == "digest") {
      m.digest = v;
      have_digest = true;
    } else if (k == "size") {
      m.size = std::strtoull(v.c_str(), nullptr, 10);
      have_size = true;
    } else if (k == "crc32") {
      m.crc = static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
      have_crc = true;
    } else if (k == "compiler") {
      m.compiler = v;
    }
  }
  return have_digest && have_size && have_crc;
}

/// Process-unique temp path prefix inside the cache directory (same
/// filesystem as the final name, so rename(2) is atomic).
[[nodiscard]] std::string temp_prefix(const std::string& dir) {
  static std::atomic<std::uint64_t> seq{0};
  return dir + "/tmp-" + std::to_string(::getpid()) + "-" +
         std::to_string(seq.fetch_add(1));
}

void remove_quiet(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel module: one dlopened mode image
// ---------------------------------------------------------------------------

using EvalFn2 = void (*)(std::uint64_t*, std::uint64_t*);
using EvalFn1 = void (*)(std::uint64_t*);

struct JitKernel {
  std::shared_ptr<const CompiledEval::Program> program;
  std::string so_path;      ///< cache entry backing this module
  std::string meta_path;
  void* handle = nullptr;   ///< dlopen handle, closed exactly once
  EvalFn2 eval2 = nullptr;
  EvalFn1 eval1 = nullptr;  ///< null unless the program is fast-path eligible

  JitKernel() = default;
  JitKernel(const JitKernel&) = delete;
  JitKernel& operator=(const JitKernel&) = delete;
  ~JitKernel() {
    if (handle) ::dlclose(handle);
  }
};

namespace {

/// dlopen `so_path` and validate every exported symbol against the
/// program: ABI tag, scratch shape, fast-path presence, and the embedded
/// program digest.  Any mismatch (or dlopen/dlsym failure) is a poisoned
/// entry — the caller evicts it.  RTLD_LOCAL keeps kernel symbols out of
/// the process's global namespace (every module exports the same names).
[[nodiscard]] Status open_and_validate(
    JitKernel& k, const std::shared_ptr<const CompiledEval::Program>& p,
    const std::string& so_path, const std::string& digest_hex) {
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) {
    const char* err = ::dlerror();
    return Status::data_loss("jit: dlopen(" + so_path +
                             ") failed: " + (err ? err : "unknown"));
  }
  // From here every failure path must dlclose — stash the handle first so
  // the Kernel destructor owns the lifecycle even mid-validation.
  k.handle = handle;
  k.program = p;
  k.so_path = so_path;

  auto sym = [&](const char* name) { return ::dlsym(handle, name); };
  const auto* abi = static_cast<const std::uint32_t*>(sym("pp_jit_abi"));
  const auto* w = static_cast<const std::uint32_t*>(sym("pp_jit_w"));
  const auto* slots = static_cast<const std::uint32_t*>(sym("pp_jit_slots"));
  const auto* has_fast =
      static_cast<const std::uint32_t*>(sym("pp_jit_has_fast"));
  const auto* digest = static_cast<const char*>(sym("pp_jit_digest"));
  if (!abi || !w || !slots || !has_fast || !digest)
    return Status::data_loss("jit: " + so_path +
                             " is missing kernel metadata symbols");
  if (*abi != 1u)
    return Status::data_loss("jit: " + so_path + " has ABI " +
                             std::to_string(*abi) + ", expected 1");
  if (*w != static_cast<std::uint32_t>(p->wide_words) ||
      *slots != static_cast<std::uint32_t>(p->init.size()) ||
      (*has_fast != 0u) != p->fast_path_ok)
    return Status::data_loss("jit: " + so_path +
                             " kernel shape does not match the program");
  if (digest_hex != digest)
    return Status::data_loss("jit: " + so_path +
                             " embeds program digest " + std::string(digest) +
                             ", expected " + digest_hex +
                             " (stale or colliding cache entry)");
  k.eval2 = reinterpret_cast<EvalFn2>(sym("pp_jit_eval2"));
  if (!k.eval2)
    return Status::data_loss("jit: " + so_path + " exports no pp_jit_eval2");
  if (p->fast_path_ok) {
    k.eval1 = reinterpret_cast<EvalFn1>(sym("pp_jit_eval1"));
    if (!k.eval1)
      return Status::data_loss("jit: " + so_path + " exports no pp_jit_eval1");
  }
  return Status();
}

}  // namespace

// ---------------------------------------------------------------------------
// JitEval runtime
// ---------------------------------------------------------------------------

JitEval::JitEval(std::vector<std::shared_ptr<const JitKernel>> kernels,
                 std::shared_ptr<const JitBuildInfo> info,
                 std::shared_ptr<KernelCounters> stats)
    : kernels_(std::move(kernels)),
      info_(std::move(info)),
      stats_(std::move(stats)) {
  value_.resize(kernels_.size());
  unknown_.resize(kernels_.size());
  for (std::size_t m = 0; m < kernels_.size(); ++m) {
    const CompiledEval::Program& p = *kernels_[m]->program;
    const auto W = static_cast<std::size_t>(p.wide_words);
    value_[m].assign(p.init.size() * W, 0);
    unknown_[m].assign(p.init.size() * W, 0);
    // The scratch stride is fixed at W for the kernel's lifetime, so the
    // constant image broadcasts exactly once.
    for (const std::uint32_t s : p.const_slots) {
      const PackedBits b = p.init[s];
      for (std::size_t w = 0; w < W; ++w) {
        value_[m][std::size_t{s} * W + w] = b.value;
        unknown_[m][std::size_t{s} * W + w] = b.unknown;
      }
    }
  }
  const CompiledEval::Program& p0 = *kernels_.front()->program;
  seq_words_ = static_cast<std::size_t>(p0.wide_words);
  if (!p0.regs.empty()) reset_state();
}

std::size_t JitEval::input_count() const noexcept {
  return kernels_.front()->program->n_public_in;
}
std::size_t JitEval::output_count() const noexcept {
  return kernels_.front()->program->n_public_out;
}
std::size_t JitEval::mode_count() const noexcept { return kernels_.size(); }
bool JitEval::sequential() const noexcept {
  return kernels_.front()->program->is_sequential;
}
std::size_t JitEval::preferred_words() const noexcept {
  return static_cast<std::size_t>(kernels_.front()->program->wide_words);
}

void JitEval::reset_state() {
  const CompiledEval::Program& p = *kernels_.front()->program;
  const auto W = static_cast<std::size_t>(p.wide_words);
  for (const SeqReg& r : p.regs) {
    std::uint64_t* qv = value_.front().data() + std::size_t{r.q_slot} * W;
    std::uint64_t* qu = unknown_.front().data() + std::size_t{r.q_slot} * W;
    for (std::size_t w = 0; w < W; ++w) {
      qv[w] = r.reset.value;
      qu[w] = r.reset.unknown;
    }
  }
}

std::unique_ptr<Evaluator> JitEval::clone() const {
  return std::unique_ptr<Evaluator>(new JitEval(kernels_, info_, stats_));
}

KernelStats JitEval::kernel_stats() const noexcept {
  KernelStats s = stats_->load();
  s.jit_passes = s.fast_passes + s.slow_passes + s.cycles_run;
  return s;
}

Status JitEval::eval_wide_mode(std::size_t mode,
                               std::span<const std::uint64_t> in_value,
                               std::span<const std::uint64_t> in_unknown,
                               std::span<std::uint64_t> out_value,
                               std::span<std::uint64_t> out_unknown,
                               std::size_t lanes) {
  const JitKernel& k = *kernels_[mode];
  const CompiledEval::Program& p = *k.program;
  if (p.is_sequential)
    return Status::failed_precondition(
        "eval_wide: sequential program (register state needs a cycle "
        "protocol) — use run_cycles");
  const std::size_t nin = p.in_slots.size();
  const std::size_t nout = p.out_slots.size();
  if (lanes < 1)
    return Status::invalid_argument("eval_wide: lanes must be >= 1");
  const std::size_t words =
      (lanes + Evaluator::kBatchLanes - 1) / Evaluator::kBatchLanes;
  if (in_value.size() != nin * words || in_unknown.size() != nin * words ||
      out_value.size() != nout * words || out_unknown.size() != nout * words)
    return Status::invalid_argument(
        "eval_wide: " + std::to_string(lanes) + " lanes span " +
        std::to_string(words) + " words, so expected " +
        std::to_string(nin * words) + " input and " +
        std::to_string(nout * words) +
        " output plane words per plane (value/unknown)");

  const auto W = static_cast<std::size_t>(p.wide_words);
  std::uint64_t* val = value_[mode].data();
  std::uint64_t* unk = unknown_[mode].data();
  for (std::size_t w0 = 0; w0 < words; w0 += W) {
    const std::size_t nw = std::min(W, words - w0);
    // Load inputs at the fixed stride W; only the nw live words are
    // written (the kernel computes garbage in the dead words, which the
    // masked store below never reads).
    std::uint64_t any_unknown = 0;
    for (std::size_t i = 0; i < nin; ++i) {
      const std::uint64_t* sv = in_value.data() + i * words + w0;
      const std::uint64_t* su = in_unknown.data() + i * words + w0;
      std::uint64_t* dv = val + std::size_t{p.in_slots[i]} * W;
      std::uint64_t* du = unk + std::size_t{p.in_slots[i]} * W;
      for (std::size_t w = 0; w < nw; ++w) {
        const std::uint64_t m = word_mask(lanes, w0 + w);
        const std::uint64_t u = su[w] & m;
        dv[w] = sv[w] & ~u & m;
        du[w] = u;
        any_unknown |= u;
      }
    }

    const bool fast = p.fast_path_ok && any_unknown == 0;
    (fast ? stats_->fast_passes : stats_->slow_passes)
        .fetch_add(1, std::memory_order_relaxed);
    if (fast)
      k.eval1(val);
    else
      k.eval2(val, unk);

    for (std::size_t kk = 0; kk < nout; ++kk) {
      const std::uint64_t* sv = val + std::size_t{p.out_slots[kk]} * W;
      const std::uint64_t* su = unk + std::size_t{p.out_slots[kk]} * W;
      std::uint64_t* dv = out_value.data() + kk * words + w0;
      std::uint64_t* du = out_unknown.data() + kk * words + w0;
      for (std::size_t w = 0; w < nw; ++w) {
        const std::uint64_t m = word_mask(lanes, w0 + w);
        dv[w] = sv[w] & m;
        du[w] = fast ? 0 : su[w] & m;
      }
    }
  }
  return Status();
}

Status JitEval::eval_wide(std::span<const std::uint64_t> in_value,
                          std::span<const std::uint64_t> in_unknown,
                          std::span<std::uint64_t> out_value,
                          std::span<std::uint64_t> out_unknown,
                          std::size_t lanes) {
  return eval_wide_mode(0, in_value, in_unknown, out_value, out_unknown,
                        lanes);
}

Status JitEval::eval_modes(std::span<const std::uint64_t> in_value,
                           std::span<const std::uint64_t> in_unknown,
                           std::span<std::uint64_t> out_value,
                           std::span<std::uint64_t> out_unknown,
                           std::size_t lanes_per_mode) {
  const std::size_t modes = kernels_.size();
  if (modes == 1)
    return eval_wide(in_value, in_unknown, out_value, out_unknown,
                     lanes_per_mode);
  const CompiledEval::Program& p0 = *kernels_.front()->program;
  const std::size_t nin = p0.in_slots.size();
  const std::size_t nout = p0.out_slots.size();
  if (lanes_per_mode == 0)
    return Status::invalid_argument("eval_modes: lanes_per_mode must be >= 1");
  const std::size_t wpm =
      (lanes_per_mode + kBatchLanes - 1) / kBatchLanes;
  if (in_value.size() != nin * modes * wpm ||
      in_unknown.size() != nin * modes * wpm ||
      out_value.size() != nout * modes * wpm ||
      out_unknown.size() != nout * modes * wpm)
    return Status::invalid_argument(
        "eval_modes: plane spans must be exactly nets * modes * " +
        std::to_string(wpm) + " words (mode-major lane groups)");

  mode_buf_.resize(2 * (nin + nout) * wpm);
  std::uint64_t* iv = mode_buf_.data();
  std::uint64_t* iu = iv + nin * wpm;
  std::uint64_t* ov = iu + nin * wpm;
  std::uint64_t* ou = ov + nout * wpm;
  for (std::size_t m = 0; m < modes; ++m) {
    for (std::size_t i = 0; i < nin; ++i)
      for (std::size_t w = 0; w < wpm; ++w) {
        iv[i * wpm + w] = in_value[(i * modes + m) * wpm + w];
        iu[i * wpm + w] = in_unknown[(i * modes + m) * wpm + w];
      }
    if (Status s = eval_wide_mode(m, {iv, nin * wpm}, {iu, nin * wpm},
                                  {ov, nout * wpm}, {ou, nout * wpm},
                                  lanes_per_mode);
        !s.ok())
      return Status(s.code(), "eval_modes: mode " + std::to_string(m) + ": " +
                                  s.message());
    for (std::size_t kk = 0; kk < nout; ++kk)
      for (std::size_t w = 0; w < wpm; ++w) {
        out_value[(kk * modes + m) * wpm + w] = ov[kk * wpm + w];
        out_unknown[(kk * modes + m) * wpm + w] = ou[kk * wpm + w];
      }
  }
  return Status();
}

Status JitEval::eval_packed(std::span<const PackedBits> inputs,
                            std::span<PackedBits> outputs, int lanes) {
  const CompiledEval::Program& p = *kernels_.front()->program;
  if (p.is_sequential)
    return Status::failed_precondition(
        "eval_packed: sequential program (register state needs a cycle "
        "protocol) — use run_cycles");
  if (lanes < 1 || lanes > kBatchLanes)
    return Status::invalid_argument("eval_packed: lanes must be 1.." +
                                    std::to_string(kBatchLanes));
  const std::size_t nin = p.in_slots.size();
  const std::size_t nout = p.out_slots.size();
  if (inputs.size() != nin || outputs.size() != nout)
    return Status::invalid_argument(
        "eval_packed: expected " + std::to_string(nin) + " inputs and " +
        std::to_string(nout) + " outputs");
  shim_.resize(2 * (nin + nout));
  std::uint64_t* iv = shim_.data();
  std::uint64_t* iu = iv + nin;
  std::uint64_t* ov = iu + nin;
  std::uint64_t* ou = ov + nout;
  for (std::size_t i = 0; i < nin; ++i) {
    iv[i] = inputs[i].value;
    iu[i] = inputs[i].unknown;
  }
  if (Status s = eval_wide({iv, nin}, {iu, nin}, {ov, nout}, {ou, nout},
                           static_cast<std::size_t>(lanes));
      !s.ok())
    return s;
  for (std::size_t kk = 0; kk < nout; ++kk) outputs[kk] = {ov[kk], ou[kk]};
  return Status();
}

bool JitEval::settle_fixpoint(std::size_t nw, bool fast,
                              std::size_t max_iters) {
  const JitKernel& k = *kernels_.front();
  const CompiledEval::Program& p = *k.program;
  const auto W = static_cast<std::size_t>(p.wide_words);
  std::uint64_t* val = value_.front().data();
  std::uint64_t* unk = unknown_.front().data();
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    if (fast)
      k.eval1(val);
    else
      k.eval2(val, unk);
    if (!p.has_settle_regs) return true;  // edge-triggered only: one pass

    // Same simultaneous two-phase staging as the interpreter's
    // settle_fixpoint, at the fixed stride W over the nw live words
    // (delta over the live words only — the dead tail holds garbage the
    // kernel keeps recomputing, which must not block convergence).
    std::uint64_t* tv = seq_tmp_.data();
    std::uint64_t* tu = tv + p.regs.size() * W;
    for (std::size_t ri = 0; ri < p.regs.size(); ++ri) {
      const SeqReg& r = p.regs[ri];
      if (r.kind != SeqReg::Kind::kLatch && r.kind != SeqReg::Kind::kDffRst)
        continue;
      const std::uint64_t* qv = val + std::size_t{r.q_slot} * W;
      const std::uint64_t* qu = unk + std::size_t{r.q_slot} * W;
      const std::uint64_t* dv = val + std::size_t{r.d_slot} * W;
      const std::uint64_t* du = unk + std::size_t{r.d_slot} * W;
      const std::uint64_t* cv = val + std::size_t{r.ctl_slot} * W;
      const std::uint64_t* cu = unk + std::size_t{r.ctl_slot} * W;
      std::uint64_t* nv = tv + ri * W;
      std::uint64_t* nu = tu + ri * W;
      if (r.kind == SeqReg::Kind::kLatch) {
        if (fast) {
          for (std::size_t w = 0; w < nw; ++w)
            nv[w] = (cv[w] & dv[w]) | (~cv[w] & qv[w]);
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t en1 = cv[w] & ~cu[w];
            nv[w] = (en1 & dv[w]) | (~en1 & qv[w]);
            nu[w] = (en1 & du[w]) | (~en1 & qu[w]);
          }
        }
      } else {
        if (fast) {
          for (std::size_t w = 0; w < nw; ++w) nv[w] = qv[w] & cv[w];
        } else {
          for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t rst0 = ~cv[w] & ~cu[w];
            nv[w] = qv[w] & ~rst0;
            nu[w] = qu[w] & ~rst0;
          }
        }
      }
    }
    std::uint64_t delta = 0;
    for (std::size_t ri = 0; ri < p.regs.size(); ++ri) {
      const SeqReg& r = p.regs[ri];
      if (r.kind != SeqReg::Kind::kLatch && r.kind != SeqReg::Kind::kDffRst)
        continue;
      std::uint64_t* qv = val + std::size_t{r.q_slot} * W;
      std::uint64_t* qu = unk + std::size_t{r.q_slot} * W;
      const std::uint64_t* nv = tv + ri * W;
      const std::uint64_t* nu = tu + ri * W;
      for (std::size_t w = 0; w < nw; ++w) {
        delta |= qv[w] ^ nv[w];
        qv[w] = nv[w];
      }
      if (!fast)
        for (std::size_t w = 0; w < nw; ++w) {
          delta |= qu[w] ^ nu[w];
          qu[w] = nu[w];
        }
    }
    if (delta == 0) return true;
  }
  return false;
}

Status JitEval::run_cycles(std::span<const std::uint64_t> in_value,
                           std::span<const std::uint64_t> in_unknown,
                           std::span<std::uint64_t> out_value,
                           std::span<std::uint64_t> out_unknown,
                           std::size_t cycles, std::size_t lanes, bool reset) {
  const CompiledEval::Program& p = *kernels_.front()->program;
  const std::size_t nin = p.n_public_in;
  const std::size_t nout = p.n_public_out;
  if (cycles < 1)
    return Status::invalid_argument("run_cycles: cycles must be >= 1");
  if (lanes < 1)
    return Status::invalid_argument("run_cycles: lanes must be >= 1");
  const std::size_t words =
      (lanes + Evaluator::kBatchLanes - 1) / Evaluator::kBatchLanes;
  if (in_value.size() != nin * cycles * words ||
      in_unknown.size() != nin * cycles * words ||
      out_value.size() != nout * cycles * words ||
      out_unknown.size() != nout * cycles * words)
    return Status::invalid_argument(
        "run_cycles: " + std::to_string(lanes) + " lanes over " +
        std::to_string(cycles) + " cycles expect " +
        std::to_string(nin * cycles * words) + " input and " +
        std::to_string(nout * cycles * words) +
        " output plane words per plane");
  if (!reset && seq_words_ != words)
    return Status::failed_precondition(
        "run_cycles: reset=false continues from carried register state, "
        "which lives at the previous call's lane width (" +
        std::to_string(seq_words_) + " plane words, got " +
        std::to_string(words) + ")");

  const JitKernel& k = *kernels_.front();
  const auto W = static_cast<std::size_t>(p.wide_words);
  seq_tmp_.resize(2 * p.regs.size() * W);
  const std::size_t max_iters = p.regs.size() + 8;
  std::uint64_t* val = value_.front().data();
  std::uint64_t* unk = unknown_.front().data();
  (void)k;

  for (std::size_t w0 = 0; w0 < words; w0 += W) {
    const std::size_t nw = std::min(W, words - w0);
    seq_words_ = nw;
    if (reset) reset_state();
    for (std::size_t c = 0; c < cycles; ++c) {
      std::uint64_t any_unknown = 0;
      for (std::size_t i = 0; i < nin; ++i) {
        const std::uint64_t* sv = in_value.data() + (c * nin + i) * words + w0;
        const std::uint64_t* su =
            in_unknown.data() + (c * nin + i) * words + w0;
        std::uint64_t* dv = val + std::size_t{p.in_slots[i]} * W;
        std::uint64_t* du = unk + std::size_t{p.in_slots[i]} * W;
        for (std::size_t w = 0; w < nw; ++w) {
          const std::uint64_t m = word_mask(lanes, w0 + w);
          const std::uint64_t u = su[w] & m;
          dv[w] = sv[w] & ~u & m;
          du[w] = u;
          any_unknown |= u;
        }
      }
      std::uint64_t state_unknown = 0;
      for (const SeqReg& r : p.regs) {
        const std::uint64_t* qu = unk + std::size_t{r.q_slot} * W;
        for (std::size_t w = 0; w < nw; ++w)
          state_unknown |= qu[w] & word_mask(lanes, w0 + w);
      }
      const bool fast =
          p.fast_path_ok && any_unknown == 0 && state_unknown == 0;
      stats_->cycles_run.fetch_add(1, std::memory_order_relaxed);
      if (fast)
        stats_->fast_cycle_passes.fetch_add(1, std::memory_order_relaxed);

      if (!settle_fixpoint(nw, fast, max_iters))
        return Status::resource_exhausted(
            "run_cycles: level-sensitive feedback failed to settle after " +
            std::to_string(max_iters) + " iterations (oscillation?)");

      for (std::size_t kk = 0; kk < nout; ++kk) {
        const std::uint64_t* sv = val + std::size_t{p.out_slots[kk]} * W;
        const std::uint64_t* su = unk + std::size_t{p.out_slots[kk]} * W;
        std::uint64_t* dv = out_value.data() + (c * nout + kk) * words + w0;
        std::uint64_t* du = out_unknown.data() + (c * nout + kk) * words + w0;
        for (std::size_t w = 0; w < nw; ++w) {
          const std::uint64_t m = word_mask(lanes, w0 + w);
          dv[w] = sv[w] & m;
          du[w] = fast ? 0 : su[w] & m;
        }
      }

      if (p.n_edge_regs != 0) {
        std::uint64_t* tv = seq_tmp_.data();
        std::uint64_t* tu = tv + p.regs.size() * W;
        for (std::size_t ri = 0; ri < p.regs.size(); ++ri) {
          const SeqReg& r = p.regs[ri];
          if (r.kind == SeqReg::Kind::kLatch) continue;
          const std::uint64_t* dvs = val + std::size_t{r.d_slot} * W;
          const std::uint64_t* dus = unk + std::size_t{r.d_slot} * W;
          std::uint64_t* nv = tv + ri * W;
          std::uint64_t* nu = tu + ri * W;
          if (r.kind == SeqReg::Kind::kDffRst) {
            const std::uint64_t* cv = val + std::size_t{r.ctl_slot} * W;
            const std::uint64_t* cu = unk + std::size_t{r.ctl_slot} * W;
            if (fast) {
              for (std::size_t w = 0; w < nw; ++w) nv[w] = dvs[w] & cv[w];
            } else {
              for (std::size_t w = 0; w < nw; ++w) {
                const std::uint64_t rst0 = ~cv[w] & ~cu[w];
                nv[w] = dvs[w] & ~rst0;
                nu[w] = dus[w] & ~rst0;
              }
            }
          } else if (fast) {
            for (std::size_t w = 0; w < nw; ++w) nv[w] = dvs[w];
          } else {
            for (std::size_t w = 0; w < nw; ++w) {
              nv[w] = dvs[w];
              nu[w] = dus[w];
            }
          }
        }
        std::uint64_t edge_delta = 0;
        for (std::size_t ri = 0; ri < p.regs.size(); ++ri) {
          const SeqReg& r = p.regs[ri];
          if (r.kind == SeqReg::Kind::kLatch) continue;
          std::uint64_t* qv = val + std::size_t{r.q_slot} * W;
          std::uint64_t* qu = unk + std::size_t{r.q_slot} * W;
          const std::uint64_t* nv = tv + ri * W;
          const std::uint64_t* nu = tu + ri * W;
          for (std::size_t w = 0; w < nw; ++w) {
            edge_delta |= qv[w] ^ nv[w];
            qv[w] = nv[w];
          }
          if (!fast)
            for (std::size_t w = 0; w < nw; ++w) {
              edge_delta |= qu[w] ^ nu[w];
              qu[w] = nu[w];
            }
        }
        stats_->state_commits.fetch_add(p.n_edge_regs,
                                        std::memory_order_relaxed);
        if (edge_delta != 0 && p.has_settle_regs &&
            !settle_fixpoint(nw, fast, max_iters))
          return Status::resource_exhausted(
              "run_cycles: post-edge feedback failed to settle after " +
              std::to_string(max_iters) + " iterations (oscillation?)");
      }
    }
  }
  return Status();
}

// ---------------------------------------------------------------------------
// build(): codegen -> cache -> compile -> dlopen -> verify
// ---------------------------------------------------------------------------

namespace {

/// xorshift64 — deterministic stimulus for the differential gate.
struct VerifyRng {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// Random plane pair with ~1/8 unknown density (canonical), or all-known
/// when `with_x` is false.
void fill_planes(VerifyRng& rng, std::span<std::uint64_t> value,
                 std::span<std::uint64_t> unknown, bool with_x) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    const std::uint64_t u =
        with_x ? (rng.next() & rng.next() & rng.next()) : 0;
    value[i] = rng.next() & ~u;
    unknown[i] = u;
  }
}

}  // namespace

Result<JitEval> JitEval::build(const CompiledEval& base,
                               const JitOptions& options) {
  // Snapshot the immutable program set — `base` may be serving traffic on
  // another thread; nothing below mutates it.
  std::vector<std::shared_ptr<const CompiledEval::Program>> programs;
  programs.push_back(base.program_);
  for (const auto& sub : base.modal_) programs.push_back(sub->program_);
  for (const auto& p : programs)
    if (p->instrs.size() > options.max_instructions)
      return Status::unavailable(
          "jit: program has " + std::to_string(p->instrs.size()) +
          " instructions, above the " +
          std::to_string(options.max_instructions) +
          "-instruction JIT ceiling — the interpreter serves it");

  // Resolve the compiler command and cache directory ($PP_JIT_CC /
  // $PP_JIT_CACHE, then defaults).
  std::string cc_spec = options.cc;
  if (cc_spec.empty()) {
    const char* env = std::getenv("PP_JIT_CC");
    cc_spec = env && *env ? env : "cc";
  }
  const std::vector<std::string> cc = split_ws(cc_spec);
  if (cc.empty())
    return Status::invalid_argument("jit: empty compiler command");

  std::string dir = options.cache_dir;
  if (dir.empty()) {
    if (const char* env = std::getenv("PP_JIT_CACHE"); env && *env) {
      dir = env;
    } else {
      const char* tmp = std::getenv("TMPDIR");
      dir = std::string(tmp && *tmp ? tmp : "/tmp") + "/pp-jit-cache";
    }
  }
  {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
      return Status::unavailable("jit: cannot create kernel cache '" + dir +
                                 "': " + ec.message());
  }

  Result<std::string> identity = compiler_identity(cc, dir);
  if (!identity.ok()) return identity.status();

  JitBuildInfo info;
  info.compiler = *identity;
  info.cache_hit = true;

  // Build (or cache-load) one kernel module per mode image.
  std::vector<std::shared_ptr<const JitKernel>> kernels;
  kernels.reserve(programs.size());
  for (std::size_t m = 0; m < programs.size(); ++m) {
    const auto& prog = programs[m];
    const std::string digest_hex = hex16(program_digest(*prog));
    const std::string source = emit_c(*prog, digest_hex);
    std::uint64_t kh = kFnvOffset;
    fnv_str(kh, source);
    fnv_str(kh, info.compiler);
    fnv_str(kh, options.extra_cflags);
    const std::string key = hex16(kh);
    const std::string so_path = dir + "/pp-" + key + ".so";
    const std::string meta_path = so_path + ".meta";
    if (m == 0) {
      info.key = key;
      info.so_path = so_path;
    }

    // Cache probe: the .meta sidecar is the commit marker.  Every
    // validation failure from here to dlopen evicts the entry and falls
    // through to a rebuild — a cache can only ever cost a recompile,
    // never serve a wrong kernel.
    auto kernel = std::make_shared<JitKernel>();
    bool loaded = false;
    if (const std::string meta_text = read_text_file(meta_path);
        !meta_text.empty()) {
      MetaFile meta;
      std::uint64_t so_size = 0;
      const std::uint32_t so_crc = file_crc32(so_path, so_size);
      if (meta_from_text(meta_text, meta) && meta.digest == digest_hex &&
          meta.size == so_size && meta.crc == so_crc) {
        if (open_and_validate(*kernel, prog, so_path, digest_hex).ok()) {
          loaded = true;
        } else {
          kernel = std::make_shared<JitKernel>();  // drop the poisoned handle
        }
      }
      if (!loaded) {
        remove_quiet(meta_path);
        remove_quiet(so_path);
        info.evicted = true;
      }
    }

    if (!loaded) {
      info.cache_hit = false;
      // Compile out-of-process into temp names, then rename into place
      // (.so first, .meta last) so concurrent builders race benignly.
      const std::string tmp = temp_prefix(dir);
      const std::string c_path = tmp + ".c";
      const std::string so_tmp = tmp + ".so";
      const std::string err_path = tmp + ".err";
      if (!write_file(c_path, source))
        return Status::unavailable("jit: cannot write " + c_path);
      // -s strips the temp source name: racing builders write equal bytes.
      std::vector<std::string> argv = cc;
      argv.insert(argv.end(), {"-O2", "-shared", "-fPIC", "-s"});
      for (const std::string& f : split_ws(options.extra_cflags))
        argv.push_back(f);
      argv.insert(argv.end(), {"-o", so_tmp, c_path});
      const int rc = run_command(argv, "", err_path);
      if (rc != 0) {
        std::string err = read_text_file(err_path, 1024);
        remove_quiet(c_path);
        remove_quiet(so_tmp);
        remove_quiet(err_path);
        return Status::unavailable(
            "jit: '" + cc.front() + "' failed (exit " + std::to_string(rc) +
            ") compiling the generated kernel" +
            (err.empty() ? std::string() : ":\n" + err));
      }
      remove_quiet(err_path);
      if (options.keep_source) {
        std::error_code ec;
        fs::rename(c_path, so_path + ".c", ec);
      } else {
        remove_quiet(c_path);
      }
      MetaFile meta;
      meta.digest = digest_hex;
      meta.crc = file_crc32(so_tmp, meta.size);
      meta.compiler = info.compiler;
      const std::string meta_tmp = tmp + ".meta";
      std::error_code ec;
      fs::rename(so_tmp, so_path, ec);
      bool meta_ok = false;
      if (!ec && write_file(meta_tmp, meta_to_text(meta))) {
        fs::rename(meta_tmp, meta_path, ec);
        meta_ok = !ec;
      }
      if (!meta_ok) {
        remove_quiet(so_tmp);
        remove_quiet(meta_tmp);
        remove_quiet(so_path);
        return Status::unavailable("jit: cannot install kernel into '" + dir +
                                   "': " +
                                   (ec ? ec.message() : "metadata write failed"));
      }
      info.compiled = true;
      if (Status s = open_and_validate(*kernel, prog, so_path, digest_hex);
          !s.ok()) {
        remove_quiet(meta_path);
        remove_quiet(so_path);
        return Status::internal(
            "jit: freshly built kernel failed validation: " + s.message());
      }
    }
    kernel->meta_path = meta_path;
    kernels.push_back(std::move(kernel));
  }

  JitEval jit(std::move(kernels), std::make_shared<JitBuildInfo>(info),
              std::make_shared<KernelCounters>());

  if (options.verify) {
    // Differential gate: deterministic stimulus (X/Z density ~1/8, plus an
    // all-known batch for the fast path; full and partial-tail lane
    // counts) through a private interpreter over the *same* Program, bit
    // compared on both planes.  A kernel that disagrees anywhere is
    // evicted and never served.
    auto mismatch = [&](const std::string& what) {
      for (const auto& kr : jit.kernels_) {
        remove_quiet(kr->meta_path);
        remove_quiet(kr->so_path);
      }
      return Status::internal(
          "jit: generated kernel disagrees with the interpreter (" + what +
          ") — entry evicted; serve the interpreter and report this");
    };
    VerifyRng rng;
    const auto W =
        static_cast<std::size_t>(jit.kernels_.front()->program->wide_words);
    const std::size_t full = W * Evaluator::kBatchLanes;
    const std::size_t partial = full > 27 ? full - 27 : full;
    for (std::size_t m = 0; m < jit.kernels_.size(); ++m) {
      const auto& prog = jit.kernels_[m]->program;
      CompiledEval interp(prog);
      const std::size_t nin = prog->in_slots.size();
      const std::size_t nout = prog->out_slots.size();
      for (const std::size_t lanes : {full, partial}) {
        for (const bool with_x : {true, false}) {
          const std::size_t words =
              (lanes + Evaluator::kBatchLanes - 1) / Evaluator::kBatchLanes;
          if (prog->is_sequential) {
            const std::size_t pin = prog->n_public_in;
            const std::size_t pout = prog->n_public_out;
            const std::size_t cycles = 6;
            std::vector<std::uint64_t> iv(pin * cycles * words),
                iu(pin * cycles * words), ov_a(pout * cycles * words),
                ou_a(pout * cycles * words), ov_b(pout * cycles * words),
                ou_b(pout * cycles * words);
            fill_planes(rng, iv, iu, with_x);
            if (!interp.run_cycles(iv, iu, ov_a, ou_a, cycles, lanes).ok() ||
                !jit.run_cycles(iv, iu, ov_b, ou_b, cycles, lanes).ok())
              return mismatch("run_cycles status");
            if (ov_a != ov_b || ou_a != ou_b)
              return mismatch("run_cycles planes, lanes=" +
                              std::to_string(lanes));
          } else {
            std::vector<std::uint64_t> iv(nin * words), iu(nin * words),
                ov_a(nout * words), ou_a(nout * words), ov_b(nout * words),
                ou_b(nout * words);
            fill_planes(rng, iv, iu, with_x);
            if (!interp.eval_wide(iv, iu, ov_a, ou_a, lanes).ok() ||
                !jit.eval_wide_mode(m, iv, iu, ov_b, ou_b, lanes).ok())
              return mismatch("eval_wide status");
            if (ov_a != ov_b || ou_a != ou_b)
              return mismatch("mode " + std::to_string(m) +
                              " planes, lanes=" + std::to_string(lanes));
          }
        }
      }
    }
    // The gate's passes are not traffic: restart the counters so executor
    // stats see only served batches.
    jit.stats_ = std::make_shared<KernelCounters>();
    jit.seq_words_ =
        static_cast<std::size_t>(jit.kernels_.front()->program->wide_words);
    if (!jit.kernels_.front()->program->regs.empty()) jit.reset_state();
  }

  return jit;
}

}  // namespace pp::sim
