# Shared warning/sanitizer flags for every target in the project.
#
# Defines the INTERFACE target `am_compile_options`; link it PRIVATE from
# libraries and executables. Warnings are always on; -Werror and the
# sanitizers are opt-in via AM_WERROR / AM_SANITIZE / AM_TSAN so local
# builds stay forgiving while CI is strict.

add_library(am_compile_options INTERFACE)
add_library(am::compile_options ALIAS am_compile_options)

target_compile_features(am_compile_options INTERFACE cxx_std_20)

set(AM_GNU_LIKE "$<COMPILE_LANG_AND_ID:CXX,GNU,Clang,AppleClang>")

target_compile_options(am_compile_options INTERFACE
  "$<${AM_GNU_LIKE}:-Wall;-Wextra;-Wpedantic;-Wshadow;-Wnon-virtual-dtor;-Wcast-align;-Wunused;-Woverloaded-virtual;-Wdouble-promotion>"
  "$<$<COMPILE_LANG_AND_ID:CXX,MSVC>:/W4>")

# Clang's static lock-discipline analysis; reads the AM_GUARDED_BY /
# AM_REQUIRES annotations from common/thread_annotations.hpp. GCC has no
# equivalent (the annotations expand to nothing there) — TSan covers the
# same property dynamically in the tsan preset.
target_compile_options(am_compile_options INTERFACE
  "$<$<COMPILE_LANG_AND_ID:CXX,Clang,AppleClang>:-Wthread-safety>")

if(AM_WERROR)
  target_compile_options(am_compile_options INTERFACE
    "$<${AM_GNU_LIKE}:-Werror>"
    "$<$<COMPILE_LANG_AND_ID:CXX,MSVC>:/WX>")
endif()

if(AM_SANITIZE AND AM_TSAN)
  # TSan is incompatible with ASan at the runtime level; failing here is
  # clearer than whatever the link would produce.
  message(FATAL_ERROR "AM_SANITIZE (ASan/UBSan) and AM_TSAN are mutually "
                      "exclusive; configure one build tree per sanitizer.")
endif()

if(AM_SANITIZE)
  set(AM_SAN_FLAGS -fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all)
  target_compile_options(am_compile_options INTERFACE ${AM_SAN_FLAGS})
  target_link_options(am_compile_options INTERFACE ${AM_SAN_FLAGS})
  # libstdc++'s bounds checks: operator[] past a vector's size traps. ASan
  # alone misses an index that lands inside a larger heap block, such as a
  # lookup into a cache's one-entry arrays before its first fill.
  target_compile_definitions(am_compile_options INTERFACE _GLIBCXX_ASSERTIONS)
endif()

if(AM_TSAN)
  # -O1 keeps the ~5-15x TSan slowdown tolerable while staying accurate;
  # the preset sets CMAKE_BUILD_TYPE accordingly. Frame pointers make the
  # race reports readable.
  set(AM_TSAN_FLAGS -fsanitize=thread -fno-omit-frame-pointer)
  target_compile_options(am_compile_options INTERFACE ${AM_TSAN_FLAGS})
  target_link_options(am_compile_options INTERFACE ${AM_TSAN_FLAGS})
endif()
