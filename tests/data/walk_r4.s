  loadlabel r0, .L0
  loadimm r1, 0
  loadimm r2, 6
  loadimm r3, 1
  store fv3, r0
  loadimm r0, 0
  store fv0, r0
  load r0, fv3
  store fv4, r0
  loadimm r0, 31
  store fv1, r0
  load r0, fv4
  store fv5, r0
  loadimm r0, 32
  store fv2, r0
  load r0, fv5
  jmp walk
.L0:
  halt
walk:
  bge r1, r2, .L1
  store fv3, r0
  load r0, fv0
  mload r0, r0, r1
  store fv4, r2
  load r2, fv1
  mul r3, r3, r2
  add r0, r3, r0
  add r3, r1, 1
  store fv6, r0
  load r0, fv3
  store fv1, r0
  load r0, fv6
  store fv7, r0
  load r0, fv0
  store fv3, r0
  load r0, fv7
  store fv8, r0
  load r0, fv2
  store fv0, r0
  load r0, fv8
  store fv9, r0
  load r0, fv2
  store fv5, r0
  load r0, fv9
  store fv2, r1
  move r1, r3
  move r3, r0
  loadlabel r0, .L2
  store fv10, r2
  load r2, fv4
  store fv11, r0
  load r0, fv10
  store fv4, r0
  load r0, fv11
  fp+= 3
  jmp walk
.L2:
  fp+= -3
  load r0, fv0
  load r2, fv2
  add r0, r0, r2
  mstore r0, 0, r1
  load r0, fv1
  jmp r0
.L1:
  move r1, r3
  jmp r0
