# cmake -DPREFIX=<p> -DCOUNT=<n> -P merge_shards.cmake
#
# Concatenates the cells of the ziziphus.bench.v1 exports <p>_1.json ..
# <p>_<n>.json, in that order, into <p>.json: the bytes an unsharded run of
# the same cells writes (one cell per line, see WriteBenchJson).
foreach(i RANGE 1 ${COUNT})
  file(READ ${PREFIX}_${i}.json json)
  string(FIND "${json}" "[" open)
  math(EXPR open "${open} + 1")
  string(LENGTH "${json}" end)
  math(EXPR cells_len "${end} - ${open} - 4")  # drop "\n]}\n"
  string(SUBSTRING "${json}" ${open} ${cells_len} cells)
  if(cells STREQUAL "")
    message(FATAL_ERROR "${PREFIX}_${i}.json has no cells")
  endif()
  if(i EQUAL 1)
    string(SUBSTRING "${json}" 0 ${open} merged)
    string(APPEND merged "${cells}")
  else()
    string(APPEND merged ",${cells}")
  endif()
endforeach()
file(WRITE ${PREFIX}.json "${merged}\n]}\n")
