(* End-to-end differential tests: every program must produce the identical
   observable trace under the classic (shadow AST) and irbuilder
   (OMPCanonicalLoop) lowering paths, at -O0 and -O1, with and without
   builder folding, for several team sizes.  This is the repository's
   strongest check that both of the paper's representations implement the
   same language. *)

open Helpers

let differential name ?threads source = tc name (fun () ->
    assert_all_configs_agree ?threads ~name source)

let prelude = "void record(long x);\nvoid recordf(double x);\n"

(* ---- plain C ----------------------------------------------------------- *)

let c_programs =
  [
    ( "arithmetic and conversions",
      prelude
      ^ "int main(void) {\n\
         int a = 7; long b = 3000000000l; unsigned c = 4000000000u;\n\
         double d = 2.5; float e = 0.5;\n\
         record(a + b);\n\
         record((long)(c / 3u));\n\
         record((long)(d * e * 8.0));\n\
         record(a % 3); record(-a / 2); record(a << 4); record(a >> 1);\n\
         record((a ^ 5) | (a & 3));\n\
         record(b > a ? 1 : 2);\n\
         char small = 200;\n\
         record(small);\n\
         return 0; }" );
    ( "control flow",
      prelude
      ^ "int main(void) {\n\
         int i = 0;\n\
         while (i < 5) { record(i); i += 1; }\n\
         do { record(100 + i); i -= 1; } while (i > 2);\n\
         for (int j = 0; j < 10; j += 1) {\n\
         if (j == 2) continue;\n\
         if (j == 7) break;\n\
         record(200 + j);\n\
         }\n\
         return 0; }" );
    ( "functions and recursion",
      prelude
      ^ "long fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
         int main(void) { for (int i = 0; i < 12; i += 1) record(fib(i)); return 0; }"
    );
    ( "arrays and pointers",
      prelude
      ^ "void fill(int *p, int n) { for (int i = 0; i < n; i += 1) p[i] = i * i; }\n\
         int main(void) {\n\
         int a[10];\n\
         fill(a, 10);\n\
         int *q = a + 3;\n\
         record(a[4] + q[1] + *q);\n\
         record(&a[9] - &a[2]);\n\
         int m[3][4];\n\
         for (int i = 0; i < 3; i += 1)\n\
         for (int j = 0; j < 4; j += 1) m[i][j] = 10 * i + j;\n\
         record(m[2][3] + m[1][0]);\n\
         return 0; }" );
    ( "short circuit and side effects",
      prelude
      ^ "int tick(int v) { record(v); return v; }\n\
         int main(void) {\n\
         if (tick(0) && tick(1)) record(-1);\n\
         if (tick(1) || tick(2)) record(-2);\n\
         int x = tick(3) ? tick(4) : tick(5);\n\
         record(x);\n\
         return 0; }" );
    ( "floats",
      prelude
      ^ "int main(void) {\n\
         double acc = 0.0;\n\
         for (int i = 1; i <= 16; i += 1) acc += 1.0 / i;\n\
         recordf(acc);\n\
         recordf(3.5 - 1.25 * 2.0);\n\
         record(acc > 3.0 ? 1 : 0);\n\
         return 0; }" );
    ( "increment operators",
      prelude
      ^ "int main(void) {\n\
         int i = 5;\n\
         record(i++); record(i); record(++i); record(i--); record(--i);\n\
         int a[3]; a[0] = 1; a[1] = 2; a[2] = 3;\n\
         int *p = a;\n\
         record(*p++); record(*p); ++p; record(*p);\n\
         return 0; }" );
    ( "switch statements",
      prelude
      ^ "long classify(int v) {\n\
         switch (v % 5) {\n\
         case 0: return 100;\n\
         case 1:\n\
         case 2: return 200;\n\
         case 3: { record(-3); break; }\n\
         default: return 400;\n\
         }\n\
         return 300;\n}\n\
         int main(void) {\n\
         for (int i = 0; i < 12; i += 1) record(classify(i));\n\
         int hits = 0;\n\
         switch (2) { case 2: hits += 1; case 3: hits += 10; default: \
         hits += 100; case 9: hits += 1000; }\n\
         record(hits);\n\
         switch (42) { case 1: record(-1); break; }\n\
         record(999);\n\
         int i = 0;\n\
         while (i < 6) {\n\
         switch (i) { case 2: i += 2; break; default: i += 1; break; }\n\
         record(i);\n\
         }\n\
         return 0; }" );
    ( "switch inside an OpenMP loop",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel for\n\
         #pragma omp unroll partial(2)\n\
         for (int i = 0; i < 10; i += 1) {\n\
         switch (i & 3) {\n\
         case 0: record(i * 10); break;\n\
         case 1: record(i * 10 + 1); break;\n\
         default: record(i * 10 + 9); break;\n\
         }\n\
         }\n\
         return 0; }" );
    ( "preprocessor interplay",
      "#define N 6\n#define SQUARE(x) ((x) * (x))\n"
      ^ prelude
      ^ "int main(void) {\n\
         #ifdef N\n\
         for (int i = 0; i < N; i += 1) record(SQUARE(i + 1));\n\
         #else\n\
         record(-1);\n\
         #endif\n\
         return 0; }" );
  ]

(* ---- OpenMP: worksharing and regions ----------------------------------- *)

let omp_programs =
  [
    ( "parallel region with tids",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel\n\
         { record(omp_get_thread_num()); record(100 + omp_get_num_threads()); }\n\
         return 0; }",
      Some [ 1; 4 ] );
    ( "parallel num_threads",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel num_threads(3)\n\
         record(omp_get_thread_num());\n\
         return 0; }",
      None );
    ( "parallel if(0) serializes",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel if(0)\n\
         record(omp_get_num_threads());\n\
         return 0; }",
      None );
    ( "worksharing for",
      prelude
      ^ "int main(void) {\n\
         int n = 23;\n\
         #pragma omp parallel for\n\
         for (int i = 0; i < n; i += 1) record(i * 3);\n\
         return 0; }",
      None );
    ( "orphaned for in a parallel region",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp for\n\
         for (int i = 0; i < 10; i += 1) record(i);\n\
         }\n\
         return 0; }",
      None );
    ( "schedule static with chunk",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel for schedule(static, 2)\n\
         for (int i = 0; i < 13; i += 1) record(i);\n\
         return 0; }",
      None );
    ( "schedule dynamic",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel for schedule(dynamic, 3)\n\
         for (int i = 0; i < 17; i += 1) record(i);\n\
         #pragma omp parallel for schedule(dynamic)\n\
         for (int i = 0; i < 5; i += 1) record(100 + i);\n\
         return 0; }",
      None );
    ( "schedule guided",
      prelude
      ^ "int main(void) {\n\
         long s = 0;\n\
         #pragma omp parallel for schedule(guided, 2) reduction(+: s)\n\
         for (int i = 0; i < 40; i += 1) s += i;\n\
         record(s);\n\
         return 0; }",
      None );
    ( "dynamic region repeated in a sequential loop",
      prelude
      ^ "int main(void) {\n\
         for (int rep = 0; rep < 3; rep += 1) {\n\
         #pragma omp parallel for schedule(dynamic)\n\
         for (int i = 0; i < 6; i += 1) record(rep * 100 + i);\n\
         }\n\
         return 0; }",
      None );
    ( "dynamic over a transformation",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel for schedule(dynamic, 2)\n\
         #pragma omp unroll partial(3)\n\
         for (int i = 0; i < 16; i += 1) record(i);\n\
         return 0; }",
      None );
    ( "reduction add and mul",
      prelude
      ^ "int main(void) {\n\
         long s = 0; long p = 1;\n\
         #pragma omp parallel for reduction(+: s) reduction(*: p)\n\
         for (int i = 1; i <= 10; i += 1) { s += i; p *= i > 7 ? 2 : 1; }\n\
         record(s); record(p);\n\
         return 0; }",
      None );
    ( "reduction min max",
      prelude
      ^ "int main(void) {\n\
         int lo = 2147483647; int hi = -2147483647 - 1;\n\
         #pragma omp parallel for reduction(min: lo) reduction(max: hi)\n\
         for (int i = 0; i < 20; i += 1) {\n\
         int v = (i * 7) % 13 - 5;\n\
         lo = v < lo ? v : lo;\n\
         hi = v > hi ? v : hi;\n\
         }\n\
         record(lo); record(hi);\n\
         return 0; }",
      None );
    ( "private and firstprivate",
      prelude
      ^ "int main(void) {\n\
         int t = 42; int u = 7;\n\
         #pragma omp parallel for private(t) firstprivate(u)\n\
         for (int i = 0; i < 4; i += 1) { t = i; u += i; record(t + u); }\n\
         record(t); record(u);\n\
         return 0; }",
      Some [ 1; 4 ] );
    ( "collapse(2)",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel for collapse(2)\n\
         for (int i = 0; i < 5; i += 1)\n\
         for (int j = 0; j < 3; j += 1) record(i * 10 + j);\n\
         return 0; }",
      None );
    ( "critical sections",
      prelude
      ^ "int main(void) {\n\
         long total = 0;\n\
         #pragma omp parallel num_threads(3)\n\
         {\n\
         #pragma omp critical\n\
         total += omp_get_thread_num() + 1;\n\
         #pragma omp critical (named)\n\
         total *= 2;\n\
         }\n\
         record(total);\n\
         return 0; }",
      None );
    ( "barrier master single",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel num_threads(2)\n\
         {\n\
         #pragma omp master\n\
         record(1000);\n\
         #pragma omp barrier\n\
         #pragma omp single\n\
         record(2000);\n\
         }\n\
         return 0; }",
      None );
    ( "simd and for simd",
      prelude
      ^ "int main(void) {\n\
         double a[16];\n\
         #pragma omp simd simdlen(4)\n\
         for (int i = 0; i < 16; i += 1) a[i] = i * 0.5;\n\
         double s = 0.0;\n\
         #pragma omp parallel for simd reduction(+: s)\n\
         for (int i = 0; i < 16; i += 1) s += a[i];\n\
         recordf(s);\n\
         return 0; }",
      None );
  ]

(* ---- OpenMP: loop transformations --------------------------------------- *)

let transform_programs =
  [
    ( "unroll partial factors",
      prelude
      ^ "int main(void) {\n\
         #pragma omp unroll partial(2)\n\
         for (int i = 0; i < 7; i += 1) record(i);\n\
         #pragma omp unroll partial(4)\n\
         for (int i = 0; i < 9; i += 1) record(10 + i);\n\
         #pragma omp unroll partial\n\
         for (int i = 0; i < 5; i += 1) record(20 + i);\n\
         return 0; }" );
    ( "unroll full and heuristic",
      prelude
      ^ "int main(void) {\n\
         #pragma omp unroll full\n\
         for (int i = 0; i < 6; i += 1) record(i);\n\
         #pragma omp unroll\n\
         for (int i = 0; i < 6; i += 1) record(10 + i);\n\
         return 0; }" );
    ( "unroll with non-unit step and offset",
      prelude
      ^ "int main(void) {\n\
         #pragma omp unroll partial(2)\n\
         for (int i = 7; i < 17; i += 3) record(i);\n\
         #pragma omp unroll partial(3)\n\
         for (int i = 20; i > 0; i -= 4) record(i);\n\
         return 0; }" );
    ( "tile 1d",
      prelude
      ^ "int main(void) {\n\
         #pragma omp tile sizes(4)\n\
         for (int i = 0; i < 11; i += 1) record(i);\n\
         return 0; }" );
    ( "tile 2d with remainder tiles",
      prelude
      ^ "int main(void) {\n\
         #pragma omp tile sizes(2, 3)\n\
         for (int i = 0; i < 5; i += 1)\n\
         for (int j = 0; j < 7; j += 1) record(i * 100 + j);\n\
         return 0; }" );
    ( "tile 3d",
      prelude
      ^ "int main(void) {\n\
         #pragma omp tile sizes(2, 2, 2)\n\
         for (int i = 0; i < 3; i += 1)\n\
         for (int j = 0; j < 3; j += 1)\n\
         for (int k = 0; k < 3; k += 1) record(i * 100 + j * 10 + k);\n\
         return 0; }" );
    ( "composition: unroll of unroll (Fig 6)",
      prelude
      ^ "int main(void) {\n\
         #pragma omp unroll full\n\
         #pragma omp unroll partial(2)\n\
         for (int i = 7; i < 17; i += 3) record(i);\n\
         return 0; }" );
    ( "composition: parallel for over unroll (intro example)",
      prelude
      ^ "int main(void) {\n\
         int n = 14;\n\
         #pragma omp parallel for\n\
         #pragma omp unroll partial(2)\n\
         for (int i = 0; i < n; i += 1) record(i);\n\
         return 0; }" );
    ( "composition: for over tile",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel for\n\
         #pragma omp tile sizes(5)\n\
         for (int i = 0; i < 17; i += 1) record(i);\n\
         return 0; }" );
    ( "transformations on computed data",
      prelude
      ^ "int main(void) {\n\
         double a[32]; double b[32];\n\
         for (int i = 0; i < 32; i += 1) { a[i] = i; b[i] = 0.0; }\n\
         #pragma omp unroll partial(4)\n\
         for (int i = 0; i < 32; i += 1) b[i] = 2.0 * a[i] + 1.0;\n\
         double s = 0.0;\n\
         #pragma omp tile sizes(8)\n\
         for (int i = 0; i < 32; i += 1) s += b[i];\n\
         recordf(s);\n\
         return 0; }" );
    ( "factor larger than trip count",
      prelude
      ^ "int main(void) {\n\
         #pragma omp unroll partial(16)\n\
         for (int i = 0; i < 5; i += 1) record(i);\n\
         #pragma omp tile sizes(100)\n\
         for (int i = 0; i < 7; i += 1) record(10 + i);\n\
         #pragma omp parallel for\n\
         #pragma omp unroll partial(9)\n\
         for (int i = 0; i < 4; i += 1) record(20 + i);\n\
         return 0; }" );
    ( "collapse(3) worksharing",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel for collapse(3)\n\
         for (int i = 0; i < 3; i += 1)\n\
         for (int j = 0; j < 2; j += 1)\n\
         for (int k = 0; k < 4; k += 1) record(i * 100 + j * 10 + k);\n\
         return 0; }" );
    ( "long and unsigned iteration variables",
      prelude
      ^ "int main(void) {\n\
         #pragma omp unroll partial(3)\n\
         for (long i = 1000000000000l; i < 1000000000007l; i += 2) record(i);\n\
         #pragma omp tile sizes(2)\n\
         for (unsigned u = 4294967290u; u < 4294967295u; u += 1) \
         record((long)(u - 4294967290u));\n\
         return 0; }" );
    ( "private on a bare parallel",
      prelude
      ^ "int main(void) {\n\
         int t = 5; int u = 7;\n\
         #pragma omp parallel num_threads(2) private(t) firstprivate(u)\n\
         { t = omp_get_thread_num(); record(t + u); }\n\
         record(t); record(u);\n\
         return 0; }" );
    ( "nowait loops",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel num_threads(2)\n\
         {\n\
         #pragma omp for nowait\n\
         for (int i = 0; i < 6; i += 1) record(i);\n\
         #pragma omp for\n\
         for (int j = 0; j < 4; j += 1) record(100 + j);\n\
         }\n\
         return 0; }" );
    ( "bool and char arithmetic",
      prelude
      ^ "int main(void) {\n\
         bool flag = 5;\n\
         record(flag);\n\
         bool off = 0;\n\
         record(off || flag); record(off && flag);\n\
         char c = 'A';\n\
         for (int i = 0; i < 4; i += 1) { c += 1; record(c); }\n\
         unsigned char wrap = 250;\n\
         for (int i = 0; i < 10; i += 1) wrap += 1;\n\
         record(wrap);\n\
         return 0; }" );
    ( "omp 6.0 preview: reverse",
      prelude
      ^ "int main(void) {\n\
         #pragma omp reverse\n\
         for (int i = 0; i < 7; i += 1) record(i);\n\
         #pragma omp reverse\n\
         for (int i = 20; i > 8; i -= 3) record(i);\n\
         return 0; }" );
    ( "omp 6.0 preview: interchange",
      prelude
      ^ "int main(void) {\n\
         #pragma omp interchange\n\
         for (int i = 0; i < 4; i += 1)\n\
         for (int j = 0; j < 3; j += 1) record(i * 10 + j);\n\
         #pragma omp interchange permutation(3, 1, 2)\n\
         for (int i = 0; i < 2; i += 1)\n\
         for (int j = 0; j < 2; j += 1)\n\
         for (int k = 0; k < 2; k += 1) record(100 * i + 10 * j + k);\n\
         return 0; }" );
    ( "omp 6.0 preview: fuse",
      prelude
      ^ "int main(void) {\n\
         #pragma omp fuse\n\
         {\n\
         for (int i = 0; i < 3; i += 1) record(100 + i);\n\
         for (int j = 0; j < 6; j += 1) record(200 + j);\n\
         for (int k = 2; k > 0; k -= 1) record(300 + k);\n\
         }\n\
         return 0; }" );
    ( "omp 6.0 preview: consumed by worksharing",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel for\n\
         #pragma omp reverse\n\
         for (int i = 0; i < 11; i += 1) record(i);\n\
         #pragma omp parallel for\n\
         #pragma omp interchange\n\
         for (int i = 0; i < 3; i += 1)\n\
         for (int j = 0; j < 4; j += 1) record(1000 + i * 10 + j);\n\
         #pragma omp for\n\
         #pragma omp fuse\n\
         {\n\
         for (int i = 0; i < 4; i += 1) record(2000 + i);\n\
         for (int j = 0; j < 7; j += 1) record(3000 + j);\n\
         }\n\
         return 0; }" );
    ( "omp 6.0 preview: reverse of tile, tile of reverse",
      prelude
      ^ "int main(void) {\n\
         #pragma omp reverse\n\
         #pragma omp tile sizes(3)\n\
         for (int i = 0; i < 8; i += 1) record(i);\n\
         #pragma omp tile sizes(3)\n\
         #pragma omp reverse\n\
         for (int i = 0; i < 8; i += 1) record(100 + i);\n\
         return 0; }" );
    ( "omp 6.0 preview: tile over fuse",
      prelude
      ^ "int main(void) {\n\
         #pragma omp tile sizes(2)\n\
         #pragma omp fuse\n\
         {\n\
         for (int i = 0; i < 3; i += 1) record(i);\n\
         for (int j = 0; j < 5; j += 1) record(10 + j);\n\
         }\n\
         return 0; }" );
    ( "omp 6.0 preview: stripe",
      prelude
      ^ "int main(void) {\n\
         #pragma omp stripe sizes(3)\n\
         for (int i = 0; i < 8; i += 1) record(i);\n\
         #pragma omp stripe sizes(2, 3)\n\
         for (int i = 0; i < 4; i += 1)\n\
         for (int j = 0; j < 5; j += 1) record(10 * i + j);\n\
         #pragma omp stripe sizes(9)\n\
         for (int i = 20; i > 8; i -= 3) record(100 + i);\n\
         return 0; }" );
    ( "omp 6.0 preview: stripe consumed and composed",
      prelude
      ^ "int main(void) {\n\
         #pragma omp parallel for\n\
         #pragma omp stripe sizes(3)\n\
         for (int i = 0; i < 10; i += 1) record(i);\n\
         #pragma omp reverse\n\
         #pragma omp stripe sizes(4)\n\
         for (int i = 0; i < 9; i += 1) record(100 + i);\n\
         return 0; }" );
    ( "unroll partial remainder (factor does not divide)",
      prelude
      ^ "int main(void) {\n\
         #pragma omp unroll partial(3)\n\
         for (int i = 0; i < 7; i += 1) record(i);\n\
         #pragma omp unroll partial(4)\n\
         for (int i = 10; i > 1; i -= 2) record(100 + i);\n\
         #pragma omp unroll partial(5)\n\
         for (int i = 0; i < 5; i += 1) record(200 + i);\n\
         return 0; }" );
    ( "tile sizes exceeding the trip count",
      prelude
      ^ "int main(void) {\n\
         #pragma omp tile sizes(9)\n\
         for (int i = 0; i < 4; i += 1) record(i);\n\
         #pragma omp tile sizes(5, 11)\n\
         for (int i = 8; i > 0; i -= 3)\n\
         for (int j = 0; j <= 6; j += 2) record(10 * i + j);\n\
         return 0; }" );
    ( "zero-trip loops under every transformation",
      prelude
      ^ "int main(void) {\n\
         record(-1);\n\
         #pragma omp tile sizes(3)\n\
         for (int i = 0; i < 0; i += 1) record(i);\n\
         #pragma omp stripe sizes(3)\n\
         for (int i = 5; i < 5; i += 1) record(i);\n\
         #pragma omp reverse\n\
         for (int i = 2; i > 2; i -= 1) record(i);\n\
         #pragma omp unroll partial(4)\n\
         for (int i = 0; i != 0; i += 1) record(i);\n\
         record(-2);\n\
         return 0; }" );
    ( "unroll inside a tile body is independent",
      prelude
      ^ "int main(void) {\n\
         for (int rep = 0; rep < 2; rep += 1) {\n\
         #pragma omp unroll partial(2)\n\
         for (int i = 0; i < 5; i += 1) record(rep * 100 + i);\n\
         }\n\
         return 0; }" );
  ]

(* ---- range-based for ------------------------------------------------------ *)

let range_for_programs =
  [
    ( "range-for by reference mutates",
      prelude
      ^ "int main(void) {\n\
         double a[5];\n\
         for (int i = 0; i < 5; i += 1) a[i] = i;\n\
         for (double &v : a) v = v * 2.0 + 1.0;\n\
         for (double &v : a) recordf(v);\n\
         return 0; }" );
    ( "range-for by value copies",
      prelude
      ^ "int main(void) {\n\
         int a[4];\n\
         for (int i = 0; i < 4; i += 1) a[i] = i;\n\
         for (int v : a) { v += 100; record(v); }\n\
         for (int v : a) record(v);\n\
         return 0; }" );
    ( "unroll of a range-for",
      prelude
      ^ "int main(void) {\n\
         double a[9];\n\
         for (int i = 0; i < 9; i += 1) a[i] = i * 1.5;\n\
         #pragma omp unroll partial(2)\n\
         for (double &v : a) recordf(v);\n\
         return 0; }" );
  ]

(* ---- INT32 extremes (C3 related, smaller but wrap-sensitive) -------------- *)

let edge_programs =
  [
    ( "iteration near INT_MAX",
      prelude
      ^ "int main(void) {\n\
         #pragma omp unroll partial(2)\n\
         for (int i = 2147483640; i < 2147483645; i += 1) record(i);\n\
         return 0; }" );
    ( "unsigned wrap bound",
      prelude
      ^ "int main(void) {\n\
         unsigned u = 4294967290u;\n\
         for (unsigned i = u; i < 4294967295u; i += 1) record((long)(i - u));\n\
         return 0; }" );
    ( "empty loops everywhere",
      prelude
      ^ "int main(void) {\n\
         int n = 0;\n\
         record(7777);\n\
         #pragma omp parallel for\n\
         for (int i = 0; i < n; i += 1) record(i);\n\
         #pragma omp unroll partial(4)\n\
         for (int i = 5; i < 5; i += 1) record(i);\n\
         #pragma omp tile sizes(3)\n\
         for (int i = 0; i < n; i += 1) record(i);\n\
         return 0; }" );
  ]

let all_differentials =
  List.map (fun (n, s) -> differential n s) c_programs
  @ List.map
      (fun (n, s, threads) -> differential n ?threads s)
      omp_programs
  @ List.map (fun (n, s) -> differential n s) transform_programs
  @ List.map (fun (n, s) -> differential n s) range_for_programs
  @ List.map (fun (n, s) -> differential n s) edge_programs

(* ---- dynamic worksharing in nested teams --------------------------------- *)

(* A team whose members enter another team that reaches a dispatch site
   with the same id: a callee's site in [nested] (sites are numbered per
   function), the function's own site in [recursive].  Each team must keep
   its own dispatch cursor, or the inner team's thread 0 moves the outer
   team's thread-0 cursor.  Checked against the pragma-free reference
   under both lowerings, at -O0 and -O1, uncached and through the stage
   cache. *)
let nested_dispatch_programs =
  [
    ( "dynamic loops in nested teams (callee site)",
      "void record(long x);\n\
       long g(int n) {\n\
       long b[4];\n\
       #pragma omp parallel for schedule(dynamic)\n\
       for (int i = 0; i < 4; i += 1) b[i] = i + n;\n\
       return b[0] + b[1] + b[2] + b[3];\n\
       }\n\
       long f(int n) {\n\
       long a[8];\n\
       for (int i = 0; i < 8; i += 1) a[i] = 0;\n\
       #pragma omp parallel\n\
       {\n\
       for (int r = 0; r < 2; r += 1) {\n\
       #pragma omp for schedule(dynamic)\n\
       for (int i = 0; i < 8; i += 1) a[i] += g(i + r) * n;\n\
       }\n\
       }\n\
       long s = 0;\n\
       for (int i = 0; i < 8; i += 1) s += a[i];\n\
       return s;\n\
       }\n\
       int main(void) { record(f(1)); return 0; }\n" );
    ( "dynamic loops in recursive teams (own site)",
      "void record(long x);\n\
       long f(int d, int n) {\n\
       if (d == 0) return n;\n\
       long a[8];\n\
       for (int i = 0; i < 8; i += 1) a[i] = 0;\n\
       #pragma omp parallel\n\
       {\n\
       for (int r = 0; r < 2; r += 1) {\n\
       #pragma omp for schedule(dynamic)\n\
       for (int i = 0; i < 8; i += 1) a[i] += f(d - 1, i + r);\n\
       }\n\
       }\n\
       long s = 0;\n\
       for (int i = 0; i < 8; i += 1) s += a[i];\n\
       return s;\n\
       }\n\
       int main(void) { record(f(2, 1)); return 0; }\n" );
  ]

let test_nested_dispatch source () =
  let expected =
    trace_of ~options:(o0 classic) (Mc_fuzz.Differential.strip_pragmas source)
  in
  let cached_trace options =
    let x =
      Mc_core.Pipeline.execute ~cache:(Mc_core.Cache.create ()) ~options source
    in
    match x.Mc_core.Pipeline.x_result.Mc_core.Pipeline.ir with
    | None ->
      Alcotest.failf "cached compile failed:\n%s"
        (Diag.render_all x.Mc_core.Pipeline.x_result.Mc_core.Pipeline.diag)
    | Some m -> (
      match Interp.run_main m with
      | o -> o.Interp.trace
      | exception Interp.Trap msg -> Alcotest.failf "cached run trapped: %s" msg)
  in
  List.iter
    (fun (label, options) ->
      List.iter
        (fun (how, trace) ->
          if not (Interp.trace_equal expected trace) then
            Alcotest.failf "%s %s: expected %s, got %s" label how
              (trace_to_string expected) (trace_to_string trace))
        [
          ("uncached", trace_of ~options source);
          ("cached", cached_trace options);
        ])
    [
      ("classic -O0", o0 classic);
      ("classic -O1", classic);
      ("irbuilder -O0", o0 irbuilder);
      ("irbuilder -O1", irbuilder);
    ]

(* ---- non-trace checks --------------------------------------------------- *)

let test_thread_count_affects_teams () =
  let source =
    prelude
    ^ "int main(void) {\n#pragma omp parallel\nrecord(omp_get_thread_num());\nreturn 0; }"
  in
  Alcotest.(check int) "4 threads" 4 (List.length (trace_of ~num_threads:4 source));
  Alcotest.(check int) "1 thread" 1 (List.length (trace_of ~num_threads:1 source))

let test_return_value () =
  let outcome = run_ok (prelude ^ "int main(void) { record(1); return 42; }") in
  Alcotest.(check (option int64)) "return" (Some 42L)
    outcome.Mc_interp.Interp.return_value

let test_print_output () =
  let outcome =
    run_ok
      (prelude
     ^ "int main(void) { print_int(7); print_long(123456789000l); \
        print_double(1.5); record(1); return 0; }")
  in
  Alcotest.(check string) "stdout" "7\n123456789000\n1.5\n"
    outcome.Mc_interp.Interp.output

let suite =
  all_differentials
  @ List.map
      (fun (n, s) -> tc n (test_nested_dispatch s))
      nested_dispatch_programs
  @ [
      tc "team size changes trace length" test_thread_count_affects_teams;
      tc "main return value" test_return_value;
      tc "print builtins" test_print_output;
    ]
