; seed corpus: store→load dependences on adjacent words, across a
; 4096-word page edge and at the top of the address space (offsets wrap
; to word 0). A late store to word 4095 must delay a load of 4095 but not
; a load of its neighbour 4094, so an ILP store map that confuses nearby
; words shows up as a different schedule.
  li r1, 0
  li r2, 40
  li r8, 4094
  li r9, -3
top:
  mul r3, r1, r1
  mul r3, r3, r3
  mul r3, r3, r1
  sd r3, 1(r8)
  ld r4, 0(r8)
  mul r11, r4, r4
  mul r11, r11, r11
  ld r5, 1(r8)
  sd r5, 2(r8)
  ld.lv r6, 2(r8)
  sd r6, 2(r9)
  ld r7, 1(r9)
  mul r12, r7, r7
  mul r12, r12, r12
  ld.st r10, 2(r9)
  sd r1, 4(r9)
  ld r13, 5(r9)
  addi r1, r1, 1
  bne r1, r2, top
  halt
