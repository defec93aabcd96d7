# hdcgen CLI smoke suite, run by ctest as `hdcgen_smoke`.
#
# Asserts the contract a shell user sees: snap -> snap-info round trips for
# both basis and pipeline snapshots on a scratch directory, the basis tools
# (gen / info / dist / heatmap) on the same files, stdin serving that fills
# whole batches, and bad args / unknown subcommands / corrupt or truncated
# files exit nonzero with a diagnostic instead of crashing.
#
# Inputs: -DHDCGEN=<tool path> -DWORK_DIR=<scratch dir>

if(NOT DEFINED HDCGEN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "hdcgen_smoke: pass -DHDCGEN=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<ok|fail> <needle> args...): invokes hdcgen, asserts the exit code,
# and asserts <needle> appears in combined stdout+stderr (pass "" to skip
# the output check).  The call's stdout is left in `run_stdout`.
function(run expectation needle)
  execute_process(
    COMMAND "${HDCGEN}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  set(all "${out}${err}")
  if(expectation STREQUAL "ok" AND NOT code EQUAL 0)
    message(FATAL_ERROR
      "hdcgen ${pretty}: expected success, got exit ${code}\n${all}")
  endif()
  if(expectation STREQUAL "fail" AND code EQUAL 0)
    message(FATAL_ERROR "hdcgen ${pretty}: expected a nonzero exit\n${all}")
  endif()
  if(NOT needle STREQUAL "" AND NOT all MATCHES "${needle}")
    message(FATAL_ERROR
      "hdcgen ${pretty}: output lacks '${needle}'\n${all}")
  endif()
  set(run_stdout "${out}" PARENT_SCOPE)
endfunction()

# run_stdin(<ok|fail> <needle> <input_file> args...): run() with stdin
# redirected from <input_file>, for the streaming serve subcommand.
function(run_stdin expectation needle input_file)
  execute_process(
    COMMAND "${HDCGEN}" ${ARGN}
    INPUT_FILE "${input_file}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  set(all "${out}${err}")
  if(expectation STREQUAL "ok" AND NOT code EQUAL 0)
    message(FATAL_ERROR
      "hdcgen ${pretty}: expected success, got exit ${code}\n${all}")
  endif()
  if(expectation STREQUAL "fail" AND code EQUAL 0)
    message(FATAL_ERROR "hdcgen ${pretty}: expected a nonzero exit\n${all}")
  endif()
  if(NOT needle STREQUAL "" AND NOT all MATCHES "${needle}")
    message(FATAL_ERROR
      "hdcgen ${pretty}: output lacks '${needle}'\n${all}")
  endif()
endfunction()

# --- snap -> snap-info round trip on a basis snapshot.
run(ok "wrote" snap --kind circular --size 8 --dim 96 --r 0.1
    --out "${WORK_DIR}/basis.hdcs")
run(ok "kind=circular" snap-info "${WORK_DIR}/basis.hdcs")
run(ok "all sections OK" snap-info "${WORK_DIR}/basis.hdcs")

# --- snap --pipeline -> snap-info round trip for both pipeline kinds.
run(ok "classifier pipeline" snap --pipeline classifier --dim 96
    --out "${WORK_DIR}/pipeline_cls.hdcs")
run(ok "pipeline" snap-info "${WORK_DIR}/pipeline_cls.hdcs")
run(ok "featureenc" snap-info "${WORK_DIR}/pipeline_cls.hdcs")
run(ok "regressor pipeline" snap --pipeline regressor --dim 96
    --out "${WORK_DIR}/pipeline_reg.hdcs")
run(ok "multiscale" snap-info "${WORK_DIR}/pipeline_reg.hdcs")
run(ok "all sections OK" snap-info "${WORK_DIR}/pipeline_reg.hdcs")

# --- gen writes the same basis-only snapshot as snap --kind, and the
# basis tools read it: info prints the stored provenance, dist one row per
# basis vector, heatmap the similarity map.
run(ok "wrote" gen --kind circular --size 8 --dim 96 --r 0.1
    --out "${WORK_DIR}/gen.hdcs")
file(SHA256 "${WORK_DIR}/gen.hdcs" gen_sha)
file(SHA256 "${WORK_DIR}/basis.hdcs" snap_sha)
if(NOT gen_sha STREQUAL snap_sha)
  message(FATAL_ERROR "gen and snap --kind wrote different files")
endif()
run(ok "kind:       circular" info "${WORK_DIR}/gen.hdcs")
run(ok "mean bit density" info "${WORK_DIR}/gen.hdcs")
run(ok "" dist "${WORK_DIR}/gen.hdcs")
string(REGEX MATCHALL "\n" dist_rows "${run_stdout}")
list(LENGTH dist_rows dist_row_count)
if(NOT dist_row_count EQUAL 8)
  message(FATAL_ERROR
    "dist printed ${dist_row_count} rows for m = 8\n${run_stdout}")
endif()
run(ok "" heatmap "${WORK_DIR}/gen.hdcs")

# The basis tools read exactly one basis section: a pipeline snapshot
# (several) and a file in the retired HDC\x01 stream format are refused.
run(fail "hdcgen: .*basis sections" info "${WORK_DIR}/pipeline_cls.hdcs")
string(ASCII 1 soh)
string(REPEAT "retired stream payload. " 4 legacy_payload)
file(WRITE "${WORK_DIR}/legacy.hdc" "HDC${soh}${legacy_payload}")
run(fail "hdcgen: .*not an HDCS snapshot" info "${WORK_DIR}/legacy.hdc")

# --- snap-fixtures regenerates the full golden set.
run(ok "pipeline_combined" snap-fixtures "${WORK_DIR}/fixtures")

# --- kernels: dispatch report always lists the scalar fallback as both
# compiled in and available, whatever the build machine's ISA.
run(ok "active:" kernels)
run(ok "scalar" kernels)

# --- serve honors --kernel (both flag shapes) and rejects unknown
# variants with the available list instead of crashing.  One CSV row in,
# one prediction out, pinned-variant name in the stderr summary.
file(WRITE "${WORK_DIR}/one_row.csv" "100.5\n")
run_stdin(ok "kernels = scalar" "${WORK_DIR}/one_row.csv"
    serve "${WORK_DIR}/pipeline_reg.hdcs" --kernel scalar)
run_stdin(ok "kernels = scalar" "${WORK_DIR}/one_row.csv"
    serve "${WORK_DIR}/pipeline_reg.hdcs" --kernel=scalar)
run_stdin(fail "not a compiled-in kernel variant" "${WORK_DIR}/one_row.csv"
    serve "${WORK_DIR}/pipeline_reg.hdcs" --kernel bogus)

# --- stdin serving fills whole batches under --flush-us: rows already in
# the input are batched together, not flushed one at a time before each
# read (6,400 rows / 64 per batch).
string(REPEAT "100.5\n" 6400 many_rows)
file(WRITE "${WORK_DIR}/many_rows.csv" "${many_rows}")
run_stdin(ok "in 100 batches" "${WORK_DIR}/many_rows.csv"
    serve "${WORK_DIR}/pipeline_reg.hdcs" --batch 64 --flush-us 1000000)

# --- flag spellings: `--flag value` and `--flag=value` mix freely across
# different flags, but the same flag twice — in any spelling combination —
# is a diagnosed error, never a silent first-wins.
run(ok "wrote" snap --kind=circular --size 8 --dim=96 --r 0.1
    --out "${WORK_DIR}/mixed.hdcs")
run(fail "passed more than once" snap --kind circular --size 8
    --dim 96 --dim 128 --out "${WORK_DIR}/dup.hdcs")
run(fail "passed more than once" snap --kind circular --size 8
    --dim=96 --dim=128 --out "${WORK_DIR}/dup.hdcs")
run(fail "passed more than once" snap --kind circular --size 8
    --dim 96 --dim=128 --out "${WORK_DIR}/dup.hdcs")

# --- delta/patch: identical snapshots have nothing to patch, snapshots
# that differ outside the model payload cannot be bridged, and patch
# demands an actual delta file.  (The positive round trip — adapt, export,
# patch, byte-compare — runs in the adapt e2e test, which can drive the
# socket feedback path.)
run(ok "classifier pipeline" snap --pipeline classifier --dim 96 --seed 7
    --out "${WORK_DIR}/other_seed.hdcs")
run(fail "identical" delta "${WORK_DIR}/pipeline_cls.hdcs"
    "${WORK_DIR}/pipeline_cls.hdcs" --out "${WORK_DIR}/noop.delta")
run(fail "differ outside the model payload"
    delta "${WORK_DIR}/pipeline_cls.hdcs" "${WORK_DIR}/other_seed.hdcs"
    --out "${WORK_DIR}/bad.delta")
run(fail "" delta "${WORK_DIR}/pipeline_cls.hdcs")       # missing operand
run(fail "not a single-section delta"
    patch "${WORK_DIR}/pipeline_cls.hdcs" "${WORK_DIR}/other_seed.hdcs"
    --out "${WORK_DIR}/bad_patch.hdcs")

# --- bad args: usage errors exit nonzero with a diagnostic.
run(fail "usage")                                  # no command at all
run(fail "usage" snap)                             # snap without flags
run(fail "unknown kind" snap --kind bogus --size 8 --out "${WORK_DIR}/x.hdcs")
run(fail "unknown pipeline" snap --pipeline bogus --out "${WORK_DIR}/x.hdcs")
run(fail "usage" snap-info)                        # missing file operand

# --- missing, truncated and corrupt files: diagnostic, nonzero, no crash.
run(fail "hdcgen:" snap-info "${WORK_DIR}/does_not_exist.hdcs")

# A file cut off mid-header: correct magic, nothing else.
file(WRITE "${WORK_DIR}/truncated.hdcs" "HDCS")
run(fail "hdcgen:" snap-info "${WORK_DIR}/truncated.hdcs")

# A corrupt (non-snapshot) file with the right name must be rejected too;
# long enough to pass the header-size gate so the magic check fires.
string(REPEAT "this is not an HDCS snapshot at all. " 4 garbage)
file(WRITE "${WORK_DIR}/garbage.hdcs" "${garbage}")
run(fail "not an HDCS snapshot" snap-info "${WORK_DIR}/garbage.hdcs")

message(STATUS "hdcgen_smoke: all checks passed")
